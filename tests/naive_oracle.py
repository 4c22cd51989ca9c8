"""The naive row-tuple query path, kept as the oracle for the warehouse's
columnar engine: filter, group and aggregate Python row tuples one by one."""
from __future__ import annotations

from ranopt.warehouse.query import (OPS, QueryTask, ResultTable,
                                    aggregate_values)


def run_aggregates(task: QueryTask, spec, rows: list[tuple]) -> ResultTable:
    """Filter/group/aggregate over raw row tuples; rows sorted by group key."""
    idx = {c.name: i for i, c in enumerate(spec.columns)}
    kept = []
    for r in rows:
        ok = True
        for col, op, lit in task.filters:
            if not OPS[op](r[idx[col]], lit):
                ok = False
                break
        if ok:
            kept.append(r)
    groups: dict[tuple, list] = {}
    for r in kept:
        key = tuple(r[idx[c]] for c in task.group_by)
        groups.setdefault(key, []).append(r)
    if not task.group_by and not groups:
        groups[()] = []
    header = list(task.group_by) + [f"{agg}({col})" for agg, col in task.aggregates]
    out = []
    for key in sorted(groups):  # each column has one dtype
        grp = groups[key]
        vals = []
        for agg, col in task.aggregates:
            col_vals = grp if col == "*" else [r[idx[col]] for r in grp]
            vals.append(aggregate_values(agg, col_vals))
        out.append(tuple(key) + tuple(vals))
    return ResultTable(header=header, rows=out)
