"""Subject-oriented, append-only partitioned store with hot/cold tiering.

Partitions are keyed by (subject, hour bucket). Hot partitions hold plain
row tuples; cold partitions hold a compressed immutable block. Queries are
transparent across tiers.
"""
from __future__ import annotations

import json
import threading
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import (AlreadyExists, DegenerateColumn, RetentionError,
                      SchemaError, SubjectNotFound)
from .query import QueryTask, ResultTable, run_aggregates

HOT_WINDOW_S = 24 * 3600.0
DEFAULT_RETENTION_HOURS = 7 * 24

_DTYPES = {"str": str, "int": int, "float": float}


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
    subject: str
    hour_bucket: int
    tier: str = "hot"
    rows: list = field(default_factory=list)
    blob: bytes | None = None
    row_count: int = 0

    def materialize(self) -> list:
        if self.tier == "hot":
            return self.rows
        return [tuple(r) for r in json.loads(zlib.decompress(self.blob))]

    def freeze(self) -> None:
        self.blob = zlib.compress(json.dumps(self.rows).encode())
        self.rows = []
        self.tier = "cold"


class _Subject:
    def __init__(self, spec: SubjectSpec):
        self.spec = spec
        self.partitions: dict[int, Partition] = {}
        self.col_index = {c.name: i for i, c in enumerate(spec.columns)}
        self.appended_total = 0
        self.expired_total = 0


class Warehouse:
    """In-memory warehouse; a single lock serializes writers, readers copy."""

    def __init__(self, hot_window_s: float = HOT_WINDOW_S):
        self._subjects: dict[str, _Subject] = {}
        self._lock = threading.RLock()
        self.hot_window_s = hot_window_s
        self.clock_s = 0.0  # max event time observed

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
        """Append row dicts (or tuples in schema order); atomic per call."""
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
                coerced.append(tuple(out))
            written = set()
            for row in coerced:
                t = row[sub.col_index["t_s"]]
                bucket = int(t // 3600)
                part = sub.partitions.get(bucket)
                if part is None:
                    part = Partition(subject=subject, hour_bucket=bucket)
                    sub.partitions[bucket] = part
                if part.tier == "cold":
                    raise RetentionError(
                        f"subject {subject!r}: partition {bucket} is cold "
                        f"and immutable")
                part.rows.append(row)
                part.row_count += 1
                written.add((subject, bucket))
                self.clock_s = max(self.clock_s, t)
            sub.appended_total += len(coerced)
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
                        part.freeze()
                        moved.append((name, bucket))
        return moved

    # -- reads ----------------------------------------------------------
    def scan(self, subject: str, t0: float | None = None,
             t1: float | None = None) -> list[tuple]:
        """All retained rows of a subject within [t0, t1), partition-pruned."""
        sub = self._get(subject)
        ti = sub.col_index["t_s"]
        rows = []
        with self._lock:
            for bucket in sorted(sub.partitions):
                if t0 is not None and (bucket + 1) * 3600.0 <= t0:
                    continue
                if t1 is not None and bucket * 3600.0 >= t1:
                    continue
                for r in sub.partitions[bucket].materialize():
                    if t0 is not None and r[ti] < t0:
                        continue
                    if t1 is not None and r[ti] >= t1:
                        continue
                    rows.append(r)
        return rows

    def query(self, task: QueryTask) -> ResultTable:
        sub = self._get(task.subject)
        for col in task.referenced_columns():
            if col != "*" and col not in sub.col_index:
                raise SchemaError(
                    f"subject {task.subject!r}: unknown column {col!r}")
        rows = self.scan(task.subject, task.t0, task.t1)
        return run_aggregates(task, sub.spec, rows)

    def correlate(self, subject: str, col_a: str, col_b: str,
                  t0: float | None = None, t1: float | None = None) -> float:
        sub = self._get(subject)
        for col in (col_a, col_b):
            if col not in sub.col_index:
                raise SchemaError(f"unknown column {col!r}")
        rows = self.scan(subject, t0, t1)
        if len(rows) < 2:
            raise DegenerateColumn("correlation needs at least 2 rows")
        a = np.array([r[sub.col_index[col_a]] for r in rows], dtype=float)
        b = np.array([r[sub.col_index[col_b]] for r in rows], dtype=float)
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
