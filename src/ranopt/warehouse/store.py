"""Subject-oriented, append-only partitioned store with hot/cold tiering.

Partitions are keyed by (subject, hour bucket).  Hot partitions take
appends as plain row tuples and keep numpy column arrays of them, built
when a query first reads a column.  Cold partitions hold one block per
column of raw numpy bytes (float64, int64, or int32 codes for a string
column), zlib-compressed when that at least halves them.  Each subject
keeps one append-only dictionary per string column, so a code means the
same value in every partition.  Queries read only the columns they
reference, from both tiers alike, and run vectorized (`query.run_query`);
`scan` returns rows as tuples of Python values.
"""
from __future__ import annotations

import json
import threading
import zlib
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from ..errors import (AlreadyExists, DegenerateColumn, RetentionError,
                      SchemaError, SubjectNotFound)
from .query import QueryTask, ResultTable, run_query

HOT_WINDOW_S = 24 * 3600.0
DEFAULT_RETENTION_HOURS = 7 * 24

_INT64 = 1 << 63


def _int64(v) -> int:
    i = int(v)
    if not -_INT64 <= i < _INT64:
        raise ValueError(f"{i} does not fit in 64 bits")
    return i


_DTYPES = {"str": str, "int": _int64, "float": float}
_ARRAY_DTYPES = {"str": np.int32, "int": np.int64, "float": np.float64}


@dataclass(frozen=True)
class Column:
    name: str
    dtype: str  # str | int | float
    unit: str = ""


@dataclass
class SubjectSpec:
    name: str
    columns: list[Column]
    retention_hours: int = DEFAULT_RETENTION_HOURS

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in subject {self.name!r}")
        if "t_s" not in names:
            raise SchemaError(f"subject {self.name!r} must carry a t_s column")

    def to_dict(self) -> dict:
        return {"name": self.name, "retention_hours": self.retention_hours,
                "columns": [{"name": c.name, "dtype": c.dtype, "unit": c.unit}
                            for c in self.columns]}

    @classmethod
    def from_dict(cls, d: dict) -> "SubjectSpec":
        return cls(name=d["name"],
                   columns=[Column(c["name"], c["dtype"], c.get("unit", ""))
                            for c in d["columns"]],
                   retention_hours=int(d.get("retention_hours",
                                             DEFAULT_RETENTION_HOURS)))


@dataclass
class Partition:
    hour_bucket: int
    tier: str = "hot"
    rows: list = field(default_factory=list)  # hot: row tuples
    arrays: dict = field(default_factory=dict)  # hot: columns of the
    arrays_rows: int = 0  # first arrays_rows rows, built when first read
    blocks: dict = field(default_factory=dict)  # cold: see _block
    row_count: int = 0


class _Subject:
    def __init__(self, spec: SubjectSpec):
        self.spec = spec
        self.partitions: dict[int, Partition] = {}
        self.col_index = {c.name: i for i, c in enumerate(spec.columns)}
        self.dtypes = {c.name: c.dtype for c in spec.columns}
        # per string column, the code of each value and the values by code;
        # both only grow, so a code means one value in every partition
        self.codes = {c.name: {} for c in spec.columns if c.dtype == "str"}
        self.strings = {name: [] for name in self.codes}
        self.appended_total = 0
        self.expired_total = 0

    def to_array(self, name: str, values) -> np.ndarray:
        """A column's values as an array; strings as their codes."""
        if name not in self.codes:
            return np.array(values, dtype=_ARRAY_DTYPES[self.dtypes[name]])
        codes, strings = self.codes[name], self.strings[name]
        for s in dict.fromkeys(values):
            if s not in codes:
                codes[s] = len(strings)
                strings.append(s)
        return np.fromiter(map(codes.__getitem__, values), np.int32,
                           len(values))

    def column(self, part: Partition, name: str) -> np.ndarray:
        """One column of a partition; read-only."""
        if part.tier == "cold":
            block = part.blocks[name]
            if isinstance(block, np.ndarray):
                return block
            return np.frombuffer(zlib.decompress(block),
                                 dtype=_ARRAY_DTYPES[self.dtypes[name]])
        if part.arrays_rows != len(part.rows):
            part.arrays, part.arrays_rows = {}, len(part.rows)
        if name not in part.arrays:
            part.arrays[name] = self.to_array(name, list(map(
                itemgetter(self.col_index[name]), part.rows)))
        return part.arrays[name]

    def freeze(self, part: Partition, late_rows=()) -> None:
        """Store the partition as cold blocks; a cold one takes late rows
        by being rebuilt from its columns."""
        late = dict(zip(self.col_index, zip(*late_rows)))
        blocks = {}
        for name in self.col_index:
            a = self.column(part, name)
            if late:
                a = np.concatenate([a, self.to_array(name, late[name])])
            blocks[name] = _block(a)
        part.blocks = blocks
        part.rows, part.arrays, part.tier = [], {}, "cold"
        part.row_count += len(late_rows)

    def cold_rows(self, part: Partition, keep=None) -> list[tuple]:
        """A cold partition's rows (those `keep` selects) as Python tuples."""
        cols = []
        for name in self.col_index:
            a = self.column(part, name)
            values = (a if keep is None else a[keep]).tolist()
            if name in self.strings:
                values = list(map(self.strings[name].__getitem__, values))
            cols.append(values)
        return list(zip(*cols))


def _block(a: np.ndarray):
    """A cold column: its raw bytes zlib-compressed when that at least
    halves them, else the array itself.  Measured floats shrink by only
    3-7%, and decoding them would cost every query that reads them."""
    packed = zlib.compress(a.tobytes())
    if 2 * len(packed) <= a.nbytes:
        return packed
    a.flags.writeable = False
    return a


def _in_range(t: np.ndarray, t0: float | None, t1: float | None):
    keep = None if t0 is None else t >= t0
    if t1 is not None:
        keep = t < t1 if keep is None else keep & (t < t1)
    return keep


class Warehouse:
    """In-memory warehouse; a single lock serializes writers, readers copy."""

    def __init__(self, hot_window_s: float = HOT_WINDOW_S):
        self._subjects: dict[str, _Subject] = {}
        self._lock = threading.RLock()
        self.hot_window_s = hot_window_s
        self.clock_s = 0.0  # max event time observed
        # whether a row was refused for its lead since the last row taken
        self._lead_refused = False

    # -- subjects -------------------------------------------------------
    def create_subject(self, spec: SubjectSpec) -> str:
        with self._lock:
            if spec.name in self._subjects:
                raise AlreadyExists(f"subject {spec.name!r} already exists")
            self._subjects[spec.name] = _Subject(spec)
            return spec.name

    def list_subjects(self) -> list[str]:
        with self._lock:
            return sorted(self._subjects)

    def subject_spec(self, name: str) -> SubjectSpec:
        return self._get(name).spec

    def _get(self, name: str) -> _Subject:
        with self._lock:
            if name not in self._subjects:
                raise SubjectNotFound(f"unknown subject {name!r}")
            return self._subjects[name]

    # -- writes ---------------------------------------------------------
    def append(self, subject: str, rows) -> int:
        """Append row dicts (or tuples in schema order); atomic per call.

        Rows are checked against the clock as it stood when the call began.
        A row more than the subject's retention behind it raises
        RetentionError.  So does a row more than twice the retention ahead
        of it, unless the last such row was refused and no row was taken
        since: one far-future row is refused, and data that resumed after a
        long gap is taken from its second row on."""
        sub = self._get(subject)
        spec = sub.spec
        coerced = []
        with self._lock:
            retention_s = spec.retention_hours * 3600.0
            for r in rows:
                if isinstance(r, dict):
                    missing = [c.name for c in spec.columns if c.name not in r]
                    if missing:
                        raise SchemaError(
                            f"subject {subject!r}: missing column {missing[0]!r}")
                    vals = [r[c.name] for c in spec.columns]
                else:
                    vals = list(r)
                    if len(vals) != len(spec.columns):
                        raise SchemaError(
                            f"subject {subject!r}: expected {len(spec.columns)} "
                            f"values, got {len(vals)}")
                out = []
                for c, v in zip(spec.columns, vals):
                    try:
                        out.append(_DTYPES[c.dtype](v))
                    except (TypeError, ValueError):
                        raise SchemaError(
                            f"subject {subject!r}: column {c.name!r} "
                            f"rejects value {v!r}")
                t = out[sub.col_index["t_s"]]
                if t < self.clock_s - retention_s:
                    raise RetentionError(
                        f"subject {subject!r}: row at t={t} is outside the "
                        f"{spec.retention_hours} h retention window")
                # a row from far ahead would move the clock there and push
                # every later in-time row out of retention; the first row
                # ever sets the clock, whatever its epoch
                if (t > self.clock_s + 2 * retention_s
                        and not self._lead_refused
                        and any(s.appended_total
                                for s in self._subjects.values())):
                    self._lead_refused = True
                    raise RetentionError(
                        f"subject {subject!r}: row at t={t} is more than two "
                        f"{spec.retention_hours} h retention windows ahead "
                        f"of the clock at {self.clock_s}")
                coerced.append(tuple(out))
            late: dict[int, list] = {}  # rows for cold partitions
            for row in coerced:
                t = row[sub.col_index["t_s"]]
                bucket = int(t // 3600)
                part = sub.partitions.get(bucket)
                if part is None:
                    part = Partition(hour_bucket=bucket)
                    sub.partitions[bucket] = part
                if part.tier == "cold":
                    late.setdefault(bucket, []).append(row)
                else:
                    part.rows.append(row)
                    part.row_count += 1
                self.clock_s = max(self.clock_s, t)
            for bucket, rows in late.items():
                sub.freeze(sub.partitions[bucket], rows)
            sub.appended_total += len(coerced)
            if coerced:
                self._lead_refused = False
            return len(coerced)

    def migrate_tiers(self, now_s: float) -> list[tuple[str, int]]:
        """Freeze partitions older than the hot window; expire past retention."""
        moved = []
        with self._lock:
            for name, sub in self._subjects.items():
                retention_s = sub.spec.retention_hours * 3600.0
                for bucket in sorted(sub.partitions):
                    part = sub.partitions[bucket]
                    bucket_end = (bucket + 1) * 3600.0
                    if now_s - bucket_end >= retention_s:
                        sub.expired_total += part.row_count
                        del sub.partitions[bucket]
                        continue
                    # ties at the boundary stay hot
                    if part.tier == "hot" and now_s - bucket_end > self.hot_window_s:
                        sub.freeze(part)
                        moved.append((name, bucket))
        return moved

    # -- reads ----------------------------------------------------------
    def _buckets(self, sub: _Subject, t0: float | None, t1: float | None):
        """(partition, straddles) of each partition that may hold rows in
        [t0, t1), in bucket order; a partition that straddles t0 or t1
        also holds rows outside."""
        for bucket in sorted(sub.partitions):
            lo, hi = bucket * 3600.0, (bucket + 1) * 3600.0
            if (t0 is not None and hi <= t0) or (t1 is not None and lo >= t1):
                continue
            yield sub.partitions[bucket], ((t0 is not None and lo < t0)
                                           or (t1 is not None and hi > t1))

    def scan(self, subject: str, t0: float | None = None,
             t1: float | None = None) -> list[tuple]:
        """All retained rows of a subject within [t0, t1), partition-pruned,
        as tuples of Python values in partition and append order."""
        sub = self._get(subject)
        ti = sub.col_index["t_s"]
        rows = []
        with self._lock:
            for part, straddles in self._buckets(sub, t0, t1):
                if part.tier == "cold":
                    rows += sub.cold_rows(part, _in_range(
                        sub.column(part, "t_s"), t0, t1) if straddles
                        else None)
                elif not straddles:
                    rows += part.rows
                else:
                    rows += [r for r in part.rows
                             if (t0 is None or r[ti] >= t0)
                             and (t1 is None or r[ti] < t1)]
        return rows

    def _columns(self, sub: _Subject, names: list[str], t0: float | None,
                 t1: float | None) -> tuple[dict[str, np.ndarray], int]:
        """The named columns of a subject's rows within [t0, t1), in scan
        order, and the number of those rows."""
        pieces: dict[str, list] = {c: [] for c in names}
        n = 0
        with self._lock:
            for part, straddles in self._buckets(sub, t0, t1):
                if straddles:
                    keep = _in_range(sub.column(part, "t_s"), t0, t1)
                    n += int(np.count_nonzero(keep))
                    for c in names:
                        pieces[c].append(sub.column(part, c)[keep])
                else:
                    n += part.row_count
                    for c in names:
                        pieces[c].append(sub.column(part, c))
        return {c: p[0] if len(p) == 1 else np.concatenate(p) if p
                else np.empty(0, dtype=_ARRAY_DTYPES[sub.dtypes[c]])
                for c, p in pieces.items()}, n

    def query(self, task: QueryTask) -> ResultTable:
        sub = self._get(task.subject)
        names = []  # the referenced columns, once each
        for col in task.referenced_columns():
            if col in names or col == "*":
                continue
            if col not in sub.col_index:
                raise SchemaError(
                    f"subject {task.subject!r}: unknown column {col!r}")
            names.append(col)
        for agg, col in task.aggregates:
            if agg != "count" and col in sub.strings:
                raise SchemaError(f"subject {task.subject!r}: {agg}({col}) "
                                  f"needs a numeric column")
        columns, n = self._columns(sub, names, task.t0, task.t1)
        return run_query(task, columns, sub.strings, n)

    def correlate(self, subject: str, col_a: str, col_b: str,
                  t0: float | None = None, t1: float | None = None) -> float:
        sub = self._get(subject)
        for col in (col_a, col_b):
            if col not in sub.col_index:
                raise SchemaError(f"unknown column {col!r}")
            if col in sub.strings:
                raise SchemaError(f"column {col!r} is not numeric")
        columns, n = self._columns(sub, [col_a, col_b], t0, t1)
        if n < 2:
            raise DegenerateColumn("correlation needs at least 2 rows")
        a = np.asarray(columns[col_a], dtype=float)
        b = np.asarray(columns[col_b], dtype=float)
        if np.std(a) == 0.0 or np.std(b) == 0.0:
            raise DegenerateColumn("zero variance column")
        return float(np.corrcoef(a, b)[0, 1])

    # -- bookkeeping ----------------------------------------------------
    def row_count(self, subject: str) -> int:
        sub = self._get(subject)
        with self._lock:
            return sum(p.row_count for p in sub.partitions.values())

    def counters(self, subject: str) -> dict:
        sub = self._get(subject)
        return {"appended": sub.appended_total, "expired": sub.expired_total,
                "retained": self.row_count(subject)}

    # -- export ---------------------------------------------------------
    def export_subject(self, subject: str, csv_path, sidecar_path) -> None:
        import csv as _csv
        sub = self._get(subject)
        with open(sidecar_path, "w") as f:
            json.dump(sub.spec.to_dict(), f, indent=2, sort_keys=True)
        with open(csv_path, "w", newline="") as f:
            w = _csv.writer(f)
            w.writerow([c.name for c in sub.spec.columns])
            for row in self.scan(subject):
                w.writerow(row)
