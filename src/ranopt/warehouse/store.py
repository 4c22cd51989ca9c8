"""Subject-oriented, append-only partitioned store with hot/cold tiering.

Rows are loaded by `Warehouse.load`, a batch of records at a time given as
columns.  A batch whose every row lies inside the retention and lead
bounds of any clock it can reach is admitted with one check over its time
columns; otherwise the records are admitted one at a time against the
running clock, from the first row near a bound.  Partitions are keyed by
(subject, hour bucket).  Hot partitions keep one list of values per
column, which each load extends, and numpy arrays of them built when a
read first asks for a column.  Cold partitions hold one block per column
of raw numpy bytes (float64, int64, or int32 codes for a string column),
zlib-compressed when that at least halves them.  Each subject keeps one
append-only dictionary per string column, so a code means the same value
in every partition; when partitions expire, the dictionaries are re-coded
to the values the retained cold partitions hold.  Every read goes through
one columnar path that reads only the columns asked for, from both tiers
alike: `read` returns them as arrays, `query` filters, groups and
aggregates them vectorized (`query.run_query`), and `scan` is the row view
of `read`, tuples of Python values.
"""
from __future__ import annotations

import bisect
import json
import threading
import zlib
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from ..errors import AlreadyExists, SchemaError, SubjectNotFound
from .query import QueryTask, ResultTable, is_number, run_query

HOT_WINDOW_S = 24 * 3600.0
DEFAULT_RETENTION_HOURS = 7 * 24

_INT64 = 1 << 63


def _int64(v) -> int:
    i = int(v)
    if not -_INT64 <= i < _INT64:
        raise ValueError(f"{i} does not fit in 64 bits")
    return i


# each dtype's cast of one value, and the type a column of it is mapped to
_DTYPES = {"str": str, "int": _int64, "float": float}
_TYPES = {"str": str, "int": int, "float": float}
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
    columns: list = field(default_factory=list)  # hot: a list per column
    arrays: dict = field(default_factory=dict)  # hot: columns of the
    arrays_rows: int = 0  # first arrays_rows rows, built when first read
    blocks: dict = field(default_factory=dict)  # cold: see _block
    row_count: int = 0


class _Subject:
    def __init__(self, spec: SubjectSpec):
        self.spec = spec
        self.partitions: dict[int, Partition] = {}
        self.buckets: list[int] = []  # the partitions' keys, sorted
        self.col_index = {c.name: i for i, c in enumerate(spec.columns)}
        self.dtypes = {c.name: c.dtype for c in spec.columns}
        self.types = tuple(_TYPES[c.dtype] for c in spec.columns)
        self.int_indexes = [i for i, c in enumerate(spec.columns)
                            if c.dtype == "int"]
        self.t_index = self.col_index["t_s"]
        self.retention_s = spec.retention_hours * 3600.0
        # per string column, the code of each value and the values by code;
        # a code means one value in every partition.  Between expiries both
        # only grow; `recode` replaces both dicts, so a reader holding the
        # old `strings` can still decode the codes it read
        self.codes = {c.name: {} for c in spec.columns if c.dtype == "str"}
        self.strings = {name: [] for name in self.codes}
        self.appended_total = 0
        self.expired_total = 0

    def coerce(self, columns) -> list[list]:
        """Columns in schema order as lists of the schema's types;
        SchemaError names the first row's first column that does not fit."""
        spec = self.spec
        if len(columns) != len(self.types):
            raise SchemaError(f"subject {spec.name!r}: expected "
                              f"{len(self.types)} columns, got {len(columns)}")
        try:
            out = list(map(list, map(map, self.types, columns)))
            for i in self.int_indexes:
                if out[i] and not (-_INT64 <= min(out[i])
                                   and max(out[i]) < _INT64):
                    raise ValueError("an int does not fit in 64 bits")
            return out
        except (TypeError, ValueError):
            for row in zip(*columns):
                for c, v in zip(spec.columns, row):
                    try:
                        _DTYPES[c.dtype](v)
                    except (TypeError, ValueError):
                        raise SchemaError(f"subject {spec.name!r}: column "
                                          f"{c.name!r} rejects value {v!r}")
            raise

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
        if part.arrays_rows != part.row_count:
            part.arrays, part.arrays_rows = {}, part.row_count
        if name not in part.arrays:
            part.arrays[name] = self.to_array(
                name, part.columns[self.col_index[name]])
        return part.arrays[name]

    def freeze(self, part: Partition, late_columns=None) -> None:
        """Store the partition as cold blocks; a cold one takes late rows,
        given as columns, by being rebuilt from its columns."""
        blocks = {}
        for name, i in self.col_index.items():
            a = self.column(part, name)
            if late_columns:
                a = np.concatenate([a, self.to_array(name, late_columns[i])])
            blocks[name] = _block(a)
        part.blocks = blocks
        part.columns, part.arrays, part.tier = [], {}, "cold"
        if late_columns:
            part.row_count += len(late_columns[0])

    def recode(self) -> None:
        """Re-code each string column to the values the cold partitions
        hold, remapping their blocks; hot partitions re-code when next read."""
        cold = [p for p in self.partitions.values() if p.tier == "cold"]
        for part in self.partitions.values():
            part.arrays = {}
        strings, codes = {}, {}
        for name, values in self.strings.items():
            blocks = [self.column(p, name) for p in cold]
            used = np.zeros(len(values), dtype=bool)
            for a in blocks:
                used[a] = True
            strings[name] = [s for s, u in zip(values, used.tolist()) if u]
            codes[name] = {s: i for i, s in enumerate(strings[name])}
            new_code = (np.cumsum(used) - 1).astype(np.int32)
            for part, a in zip(cold, blocks):
                part.blocks[name] = _block(new_code[a])
        self.strings, self.codes = strings, codes


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
    def load(self, batch) -> list[int]:
        """Load a batch of records given as columns: `batch` maps each
        subject to its columns in schema order, all of one length n, and
        record i is row i of every subject.  Returns the indexes of the
        refused records.

        Records are admitted in order, each all or nothing across its
        subjects, against the *running* clock: the clock, and whether a lead
        was just refused, as the records before it left them.  A record is
        refused if a row is more than its subject's retention behind the
        clock, or more than twice the retention ahead of it, unless the last
        such row was refused and no row was taken since: one far-future row
        is refused, and data that resumed after a long gap is taken from its
        second row on.  So one call loads exactly what loading its records
        one at a time would.  A batch whose rows all lie within those bounds
        of every clock it can reach is admitted by one check; otherwise the
        records from the first row near a bound on are admitted one by one.
        The taken rows are then appended once per subject, and late rows
        freeze into each cold partition once.  A value that does not fit
        its column raises SchemaError, and the call then loads nothing."""
        with self._lock:
            # (subject, its columns, its t_s column, the column's bounds)
            loads, lengths = [], set()
            # every clock the batch can reach lies in [clock, top]
            clock = top = self.clock_s
            for name, columns in batch.items():
                sub = self._subjects.get(name)
                if sub is None:
                    raise SubjectNotFound(f"unknown subject {name!r}")
                columns = sub.coerce(columns)
                lengths.update(map(len, columns))
                t = columns[sub.t_index]
                lo, hi = min(t, default=clock), max(t, default=clock)
                loads.append((sub, columns, t, lo, hi))
                top = max(top, hi)
            if len(lengths) > 1:
                raise SchemaError("the columns of a batch differ in length")
            n = lengths.pop() if lengths else 0
            if not n:
                return []
            if all(lo >= top - sub.retention_s
                   and hi <= clock + 2 * sub.retention_s
                   for sub, _, _, lo, hi in loads):
                self.clock_s, self._lead_refused = top, False
                for sub, columns, _, lo, hi in loads:
                    self._store(sub, columns, lo, hi)
                return []
            refused = self._admit(loads, min(
                next((i for i, v in enumerate(t) if not top - sub.retention_s
                      <= v <= clock + 2 * sub.retention_s), n)
                for sub, _, t, _, _ in loads), n)
            if len(refused) < n:
                keep = [True] * n
                for i in refused:
                    keep[i] = False
                for sub, columns, _, _, _ in loads:
                    columns = [list(compress(c, keep)) for c in columns]
                    t = columns[sub.t_index]
                    self._store(sub, columns, min(t), max(t))
            return refused

    def _admit(self, loads, start: int, n: int) -> list[int]:
        """Admit records start..n-1 one at a time, after records 0..start-1
        were taken, against the running clock; `loads` holds each subject
        and its t_s column.  Moves the clock; returns the indexes of the
        refused records."""
        clock, lead_refused = self.clock_s, self._lead_refused
        taken = any(s.appended_total for s in self._subjects.values())
        if start:
            clock = max(clock, *(max(t[:start]) for _, _, t, _, _ in loads))
            lead_refused, taken = False, True
        refused = []
        for i in range(start, n):
            t_max, refusal = clock, None
            for sub, _, t_col, _, _ in loads:
                retention_s = sub.retention_s
                t = t_col[i]
                if refusal is None:
                    if t < clock - retention_s:
                        refusal = "late"
                    # a row from far ahead would move the clock there and
                    # push every later in-time row out of retention; the
                    # first row ever sets the clock, whatever its epoch
                    elif (t > clock + 2 * retention_s and taken
                          and not lead_refused):
                        refusal = "ahead"
                t_max = max(t_max, t)
            if refusal is not None:
                refused.append(i)
                lead_refused = lead_refused or refusal == "ahead"
                continue
            clock, lead_refused, taken = t_max, False, True
        self.clock_s, self._lead_refused = clock, lead_refused
        return refused

    def _store(self, sub: _Subject, columns: list[list], t_min: float,
               t_max: float) -> None:
        """Append admitted, coerced columns, whose times lie in [t_min,
        t_max], to their partitions; late rows for a cold partition rebuild
        it once."""
        first = int(t_min // 3600)
        if first == int(t_max // 3600):  # one hour, as a window's rows are
            groups = {first: columns}
        else:
            rows: dict[int, list] = {}
            for i, v in enumerate(columns[sub.t_index]):
                rows.setdefault(int(v // 3600), []).append(i)
            groups = {bucket: [[c[i] for i in idx] for c in columns]
                      for bucket, idx in rows.items()}
        for bucket, cols in groups.items():
            part = sub.partitions.get(bucket)
            if part is None:  # takes the lists themselves
                sub.partitions[bucket] = Partition(bucket, columns=cols,
                                                   row_count=len(cols[0]))
                bisect.insort(sub.buckets, bucket)
            elif part.tier == "cold":
                sub.freeze(part, cols)
            else:
                list(map(list.extend, part.columns, cols))
                part.row_count += len(cols[0])
        sub.appended_total += len(columns[0])

    def migrate_tiers(self, now_s: float) -> list[tuple[str, int]]:
        """Freeze partitions older than the hot window; expire past retention."""
        moved = []
        with self._lock:
            for name, sub in self._subjects.items():
                retention_s = sub.retention_s
                expired = False
                for bucket in list(sub.buckets):
                    part = sub.partitions[bucket]
                    bucket_end = (bucket + 1) * 3600.0
                    if now_s - bucket_end >= retention_s:
                        sub.expired_total += part.row_count
                        del sub.partitions[bucket]
                        sub.buckets.remove(bucket)
                        expired = True
                        continue
                    # ties at the boundary stay hot
                    if part.tier == "hot" and now_s - bucket_end > self.hot_window_s:
                        sub.freeze(part)
                        moved.append((name, bucket))
                if expired:  # drop the values only expired rows held
                    sub.recode()
        return moved

    # -- reads ----------------------------------------------------------
    def _buckets(self, sub: _Subject, t0: float | None, t1: float | None):
        """(partition, straddles) of each partition that may hold rows in
        [t0, t1), in bucket order; a partition that straddles t0 or t1
        also holds rows outside.  The keys are bisected: partition b spans
        [3600 b, 3600 (b + 1))."""
        keys = sub.buckets
        first = 0 if t0 is None else bisect.bisect_right(
            keys, t0, key=lambda b: (b + 1) * 3600.0)
        end = len(keys) if t1 is None else bisect.bisect_left(
            keys, t1, key=lambda b: b * 3600.0)
        for bucket in keys[first:end]:
            lo, hi = bucket * 3600.0, (bucket + 1) * 3600.0
            yield sub.partitions[bucket], ((t0 is not None and lo < t0)
                                           or (t1 is not None and hi > t1))

    def read(self, subject: str, columns, t0: float | None = None,
             t1: float | None = None) -> dict[str, np.ndarray]:
        """The named columns of a subject's rows within [t0, t1), in scan
        order: numbers as read-only float64 or int64 arrays; strings as
        object arrays, decoded by the dictionaries they were read under.
        An unknown column raises SchemaError."""
        sub = self._get(subject)
        names = list(dict.fromkeys(columns))
        for col in names:
            if col not in sub.col_index:
                raise SchemaError(
                    f"subject {subject!r}: unknown column {col!r}")
        arrays, _, strings = self._columns(sub, names, t0, t1)
        for name, a in arrays.items():
            if name in strings:
                arrays[name] = np.array(strings[name], dtype=object)[a]
            else:  # it may be a partition's own array
                a.flags.writeable = False
        return arrays

    def scan(self, subject: str, t0: float | None = None,
             t1: float | None = None) -> list[tuple]:
        """All retained rows of a subject within [t0, t1), as `read` gives
        them, as tuples of Python values."""
        names = list(self._get(subject).col_index)
        columns = self.read(subject, names, t0, t1)
        return list(zip(*(columns[c].tolist() for c in names)))

    def _columns(self, sub: _Subject, names: list[str], t0: float | None,
                 t1: float | None) -> tuple[dict[str, np.ndarray], int, dict]:
        """The named columns of a subject's rows within [t0, t1), in scan
        order, the number of those rows, and the string dictionaries their
        codes index."""
        pieces: dict[str, list] = {c: [] for c in names}
        n = 0
        with self._lock:
            strings = sub.strings
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
                for c, p in pieces.items()}, n, strings

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
        for col, op, lit in task.filters:
            if not (isinstance(lit, str) if col in sub.strings
                    else is_number(lit)):
                raise SchemaError(
                    f"subject {task.subject!r}: filter {col} {op} {lit!r}: "
                    f"column {col!r} holds {sub.dtypes[col]} values")
        for agg, col in task.aggregates:
            if agg != "count" and col in sub.strings:
                raise SchemaError(f"subject {task.subject!r}: {agg}({col}) "
                                  f"needs a numeric column")
        columns, n, strings = self._columns(sub, names, task.t0, task.t1)
        return run_query(task, columns, strings, n)

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
