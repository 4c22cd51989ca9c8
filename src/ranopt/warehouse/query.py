"""Declarative filter/group/aggregate query tasks."""
from __future__ import annotations

import io
import json
import operator
from dataclasses import dataclass, field

import numpy as np

from ..errors import SchemaError, ValidationError

OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
       "<=": operator.le, ">": operator.gt, ">=": operator.ge}
AGGREGATES = ("count", "sum", "mean", "min", "max", "p50", "p95")
_QUANTILES = {"p50": 0.5, "p95": 0.95}


@dataclass
class QueryTask:
    subject: str
    t0: float | None = None
    t1: float | None = None
    filters: list[tuple[str, str, object]] = field(default_factory=list)
    group_by: list[str] = field(default_factory=list)
    aggregates: list[tuple[str, str]] = field(default_factory=list)  # (agg, column)

    def __post_init__(self):
        for name in ("t0", "t1"):
            bound = getattr(self, name)
            if bound is not None and not is_number(bound):
                raise SchemaError(f"{name} {bound!r} is neither a number "
                                  f"nor null")
            if bound != bound:
                raise SchemaError(f"{name} is NaN, which bounds no time")
        for _, op, _lit in self.filters:
            if op not in OPS:
                raise SchemaError(f"unknown filter operator {op!r}")
        for agg, col in self.aggregates:
            if agg not in AGGREGATES:
                raise SchemaError(f"unknown aggregate {agg!r}")
            if col == "*" and agg != "count":
                raise SchemaError(f"{agg}(*) is not defined; only count(*)")

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
        """The task of a JSON text; ValidationError if the text is not
        JSON or not a task's fields."""
        try:
            d = json.loads(s)
            return cls(subject=d["subject"], t0=d.get("t0"), t1=d.get("t1"),
                       filters=[tuple(f) for f in d.get("filters", [])],
                       group_by=list(d.get("group_by", [])),
                       aggregates=[tuple(a) for a in d.get("aggregates", [])])
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(
                f"query task: {type(e).__name__}: {e}") from None


def is_number(value) -> bool:
    """An int or a float, numpy's included, and not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) \
        and not isinstance(value, bool)


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
    if agg in _QUANTILES:  # on a copy, which the partition reorders
        return _quantile(np.array(values, dtype=float), _QUANTILES[agg])
    a = np.asarray(values, dtype=float)
    # the ufunc reductions behind ndarray.sum, .mean, .min and .max,
    # without their Python-level wrappers
    if agg == "sum":
        return float(np.add.reduce(a))
    if agg == "mean":
        return float(np.add.reduce(a)) / len(a)
    if agg == "min":
        return float(np.minimum.reduce(a))
    if agg == "max":
        return float(np.maximum.reduce(a))
    raise SchemaError(f"unknown aggregate {agg!r}")


def _quantile(a: np.ndarray, q: float) -> float:
    """The q-quantile of a's values by linear interpolation (Hyndman and
    Fan's type 7), bit for bit what np.percentile(a, 100 * q) returns, NaN
    and the sign of a zero included: numpy's own steps on the same data,
    without its per-call set-up.  Partially sorts `a` in place."""
    n = len(a)
    v = (n - 1) * q
    i = int(v)
    j = min(i + 1, n - 1)
    # numpy's kth set: which of -0.0 and 0.0 lands at i or j depends on it
    a.partition(sorted({0, i, j, n - 1}))
    last = a[-1]
    if last != last:  # NaN sorts last
        return float(last)
    lo, hi = float(a[i]), float(a[j])
    # numpy indexes a lone value as -1, so weighs it by v - (-1) = 1
    g = v - i if n > 1 else 1.0
    d = hi - lo  # numpy's _lerp
    return hi - d * (1 - g) if g >= 0.5 else lo + d * g


def run_query(task: QueryTask, columns: dict[str, np.ndarray],
              strings: dict[str, list[str]], n: int) -> ResultTable:
    """Filter, group and aggregate n rows held as column arrays, in scan
    order: the referenced columns of `task`, a string column as codes into
    its dictionary values `strings[column]`.  Groups are sorted by key
    value."""
    kept = None  # mask of the rows every filter keeps
    for col, op, lit in task.filters:
        values = columns[col]
        if col in strings:  # evaluate once per dictionary value
            mask = np.array([OPS[op](s, lit) for s in strings[col]],
                            dtype=bool)[values]
        else:
            mask = OPS[op](values, lit)
        kept = mask if kept is None else kept & mask
    rows = None if kept is None else kept.nonzero()[0]  # in scan order
    m = n if rows is None else len(rows)
    if task.group_by:
        keys = [columns[c] if rows is None else columns[c][rows]
                for c in task.group_by]
        order = (keys[0].argsort(kind="stable") if len(keys) == 1
                 else np.lexsort(keys[::-1]))  # both stable
        rows = order if rows is None else rows[order]
        keys = [k[order] for k in keys]
        change = keys[0][1:] != keys[0][:-1]
        for k in keys[1:]:
            change |= k[1:] != k[:-1]
        starts = [0] + [i + 1 for i in change.nonzero()[0].tolist()] \
            if m else []
        cols = []
        for c, k in zip(task.group_by, keys):
            firsts = k[starts].tolist()  # each group's key, as a Python value
            cols.append([strings[c][v] for v in firsts] if c in strings
                        else firsts)
        groups = sorted(zip(zip(*cols), starts, starts[1:] + [m]))
    else:
        groups = [((), 0, m)]
    values = {c: columns[c] if rows is None else columns[c][rows]
              for _, c in task.aggregates if c != "*"}
    values["*"] = range(m)
    header = list(task.group_by) + [f"{agg}({col})"
                                    for agg, col in task.aggregates]
    return ResultTable(header=header, rows=[
        key + tuple(aggregate_values(agg, values[col][lo:hi])
                    for agg, col in task.aggregates)
        for key, lo, hi in groups])
