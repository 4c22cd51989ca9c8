"""Declarative filter/group/aggregate query tasks."""
from __future__ import annotations

import io
import json
import operator
from dataclasses import dataclass, field

import numpy as np

from ..errors import SchemaError

OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
       "<=": operator.le, ">": operator.gt, ">=": operator.ge}
AGGREGATES = ("count", "sum", "mean", "min", "max", "p50", "p95")


@dataclass
class QueryTask:
    subject: str
    t0: float | None = None
    t1: float | None = None
    filters: list[tuple[str, str, object]] = field(default_factory=list)
    group_by: list[str] = field(default_factory=list)
    aggregates: list[tuple[str, str]] = field(default_factory=list)  # (agg, column)

    def __post_init__(self):
        for _, op, _lit in self.filters:
            if op not in OPS:
                raise SchemaError(f"unknown filter operator {op!r}")
        for agg, _col in self.aggregates:
            if agg not in AGGREGATES:
                raise SchemaError(f"unknown aggregate {agg!r}")

    def referenced_columns(self):
        cols = [c for c, _, _ in self.filters] + list(self.group_by)
        cols += [c for _, c in self.aggregates]
        return cols

    def to_json(self) -> str:
        return json.dumps({
            "subject": self.subject, "t0": self.t0, "t1": self.t1,
            "filters": [list(f) for f in self.filters],
            "group_by": list(self.group_by),
            "aggregates": [list(a) for a in self.aggregates],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "QueryTask":
        d = json.loads(s)
        return cls(subject=d["subject"], t0=d.get("t0"), t1=d.get("t1"),
                   filters=[tuple(f) for f in d.get("filters", [])],
                   group_by=list(d.get("group_by", [])),
                   aggregates=[tuple(a) for a in d.get("aggregates", [])])


@dataclass
class ResultTable:
    header: list[str]
    rows: list[tuple]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.header) + "\n")
        for row in self.rows:
            buf.write(",".join(_fmt(v) for v in row) + "\n")
        return buf.getvalue()


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def aggregate_values(agg: str, values: list) -> float | int:
    if agg == "count":
        return len(values)
    if not len(values):
        return float("nan")
    a = np.asarray(values, dtype=float)
    if agg == "sum":
        return float(a.sum())
    if agg == "mean":
        return float(a.mean())
    if agg == "min":
        return float(a.min())
    if agg == "max":
        return float(a.max())
    if agg == "p50":
        return float(np.percentile(a, 50))
    if agg == "p95":
        return float(np.percentile(a, 95))
    raise SchemaError(f"unknown aggregate {agg!r}")


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
