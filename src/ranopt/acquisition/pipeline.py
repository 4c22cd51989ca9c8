"""Ingest -> clean -> transform -> load pipeline feeding the warehouse.

Every input goes through one row parser (`parse_header`, `parse_row`): CSV
and TXT files via `ingest_batch` and the socket via `sources`, both read by
`read_rows`, and the closed loop's in-memory simulator rows via `ingest_rows`.
`ingest_stream` dedups, cleans, transforms and loads each record in the
calling thread, so every record has reached its fate when the call returns;
concurrent producers, such as two socket connections, share the dedup set
and counters under one lock and the warehouse under its own.
"""
from __future__ import annotations

import csv
import io
import math
import re
import threading
from dataclasses import dataclass
from pathlib import Path

from ..errors import FileRejected, RetentionError, UnknownSource
from ..simcore.types import (KpiRecord, MeasurementRecord, RSRP_MAX_DBM,
                             RSRP_MIN_DBM, SINR_MAX_DB, SINR_MIN_DB)
from ..warehouse.subjects import (SUBJECT_BEAM, SUBJECT_ENERGY,
                                  SUBJECT_INTERFERENCE, SUBJECT_THROUGHPUT)
from .records import (CanonicalRecord, KPI_FIELDS, MEASUREMENT_FIELDS,
                      RawRecord, RejectCode, RejectReason, SOURCE_TAGS,
                      hash_user_id)

MEASUREMENT_HEADER = MeasurementRecord.CSV_HEADER
MEASUREMENT_HEADER_KBPS = tuple(
    "rate_kbps" if c == "rate_mbps" else c for c in MEASUREMENT_HEADER)
KPI_HEADER = KpiRecord.CSV_HEADER

ENVELOPE = ("source_tag", "seq_no")

_HASHED_ID = re.compile(r"^h[0-9a-f]{16}$")
_INT64 = float(1 << 63)


@dataclass(frozen=True)
class Header:
    columns: tuple[str, ...]
    payload: tuple[str, ...]  # one of the three payload schemas
    enveloped: bool  # starts with ENVELOPE
    default_source: str  # the source of rows without the envelope


def parse_header(cells) -> Header | None:
    """The header these cells name, or None if no known schema matches."""
    columns = tuple(cells)
    enveloped = columns[:2] == ENVELOPE
    payload = columns[2:] if enveloped else columns
    if payload not in (MEASUREMENT_HEADER, MEASUREMENT_HEADER_KBPS,
                       KPI_HEADER):
        return None
    return Header(columns, payload, enveloped, "drive-test"
                  if payload[0] == "timestamp_s" else "network-management")


def _reject(code: RejectCode, field, values, line_no=None) -> RejectReason:
    """A reject whose raw text is the record's values, comma-joined."""
    return RejectReason(code, field, ",".join(map(str, values)), line_no)


def read_rows(lines, delimiter: str = ","):
    """Yield (line_no, cells) for each non-blank row of CSV text; a quoted
    row may span lines and is numbered by the line it starts on."""
    reader = csv.reader(lines, delimiter=delimiter)
    line_no = 1
    try:
        for cells in reader:
            if any(map(str.strip, cells)):
                yield line_no, cells
            line_no = reader.line_num + 1
    except csv.Error:  # a quote left open ran past the field limit
        yield line_no, []  # the rest of the text is that one bad row


class AcquisitionPipeline:
    def __init__(self, warehouse, known_cells,
                 hash_key: bytes = b"ranopt-default"):
        self.warehouse = warehouse
        self.known_cells = set(known_cells)
        self.hash_key = hash_key
        self._seen: set[tuple[str, int]] = set()
        self._auto_seq: dict[str, int] = {}
        self._lock = threading.Lock()
        self.counters = {"ingested": 0, "duplicates": 0, "kept": 0,
                         "rejected": 0, "files_rejected": 0}
        self.rejects: list[tuple[RawRecord, RejectReason]] = []
        self.file_rejects: list[tuple[str, str]] = []  # (path, message)

    # -- stream ingestion ----------------------------------------------
    def ingest_stream(self, record: RawRecord) -> str:
        """Clean, transform and load a record; returns "accepted" (kept or
        rejected) or "duplicate", which never reaches the later stages."""
        if record.source_tag not in SOURCE_TAGS:
            raise UnknownSource(f"source {record.source_tag!r} not registered")
        with self._lock:
            key = (record.source_tag, record.seq_no)
            if key in self._seen:
                self.counters["duplicates"] += 1
                return "duplicate"
            self._seen.add(key)
            self.counters["ingested"] += 1
        reason = self.clean_one(record)
        if reason is None:
            try:
                self.load([self.transform(record)])
            except RetentionError:  # older than the warehouse keeps
                reason = _reject(RejectCode.OUT_OF_RANGE, "t_s",
                                 record.payload.values())
        with self._lock:
            if reason is None:
                self.counters["kept"] += 1
            else:
                self.counters["rejected"] += 1
                self.rejects.append((record, reason))
        return "accepted"

    # -- row parsing and batch ingestion ---------------------------------
    def parse_row(self, header: Header, cells, line_no: int | None = None
                  ) -> RawRecord | RejectReason:
        """A row of cells as a record, or a line-level reject.  A row without
        the envelope gets the next sequence number of the default source."""
        if len(cells) != len(header.columns):
            return _reject(RejectCode.UNPARSABLE_VALUE, None, cells, line_no)
        if not header.enveloped:
            source = header.default_source
            with self._lock:
                seq = self._auto_seq.get(source, 0)
                self._auto_seq[source] = seq + 1
            return RawRecord(source, seq, dict(zip(header.payload, cells)))
        try:
            seq = int(cells[1])
        except ValueError:
            return _reject(RejectCode.UNPARSABLE_VALUE, "seq_no", cells, line_no)
        return RawRecord(cells[0], seq, dict(zip(header.payload, cells[2:])))

    def ingest_rows(self, header: Header, rows
                    ) -> tuple[int, list[RejectReason]]:
        """Ingest (line_no, cells) pairs; returns (accepted, line rejects)."""
        accepted = 0
        rejects: list[RejectReason] = []
        for line_no, cells in rows:
            record = self.parse_row(header, cells, line_no)
            if isinstance(record, RejectReason):
                rejects.append(record)
            elif self.ingest_stream(record) == "accepted":
                accepted += 1
        return accepted, rejects

    def ingest_batch(self, file_path) -> tuple[int, list[RejectReason]]:
        """Ingest a CSV (comma) or TXT (tab) file; a header mismatch or text
        that is not UTF-8 rejects the whole file, unreadable lines reject
        individually."""
        path = Path(file_path)
        delim = "\t" if path.suffix.lower() == ".txt" else ","
        try:
            text = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as e:
            raise FileRejected(f"{path}: not UTF-8 text ({e.reason} at "
                               f"byte {e.start})") from None
        rows = read_rows(io.StringIO(text, newline=""), delim)
        _, cells = next(rows, (None, ()))
        header = parse_header(cells)
        if header is None:
            raise FileRejected(f"{path}: unrecognized header {cells}")
        return self.ingest_rows(header, rows)

    def reject_file(self, path, message: str) -> None:
        """Record a file refused as a whole, e.g. for its header."""
        with self._lock:
            self.counters["files_rejected"] += 1
            self.file_rejects.append((str(path), message))

    # -- clean ----------------------------------------------------------
    def clean_one(self, record: RawRecord) -> RejectReason | None:
        payload = record.payload
        if "timestamp_s" in payload or "rsrp_dbm" in payload:
            mandatory = MEASUREMENT_HEADER_KBPS if "rate_kbps" in payload \
                else MEASUREMENT_HEADER
            integral = ("timestamp_s", "beam_id")
        else:
            mandatory = KPI_HEADER
            integral = ("window_start_s", "num_users")
        for f in mandatory:
            if f not in payload or payload[f] == "":
                return _reject(RejectCode.MISSING_FIELD, f, payload.values())
        numeric = [f for f in mandatory
                   if f not in ("user_id", "cell_id", "signal_type")]
        vals = {}
        for f in numeric:
            try:
                vals[f] = float(payload[f])
            except (TypeError, ValueError):
                return _reject(RejectCode.UNPARSABLE_VALUE, f, payload.values())
        for f, v in vals.items():  # NaN or infinity would poison aggregates
            if not math.isfinite(v):
                return _reject(RejectCode.OUT_OF_RANGE, f, payload.values())
        for f in integral:  # stored as int64, or bucketed by the hour
            if not -_INT64 <= vals[f] < _INT64:
                return _reject(RejectCode.OUT_OF_RANGE, f, payload.values())
        if "rsrp_dbm" in vals and not (RSRP_MIN_DBM <= vals["rsrp_dbm"] <= RSRP_MAX_DBM):
            return _reject(RejectCode.OUT_OF_RANGE, "rsrp_dbm", payload.values())
        if "sinr_db" in vals and not (SINR_MIN_DB <= vals["sinr_db"] <= SINR_MAX_DB):
            return _reject(RejectCode.OUT_OF_RANGE, "sinr_db", payload.values())
        for rate_field in ("rate_mbps", "rate_kbps", "throughput_mbps"):
            if rate_field in vals and vals[rate_field] < 0.0:
                return _reject(RejectCode.OUT_OF_RANGE, rate_field, payload.values())
        if payload.get("cell_id") not in self.known_cells:
            return _reject(RejectCode.INCONSISTENT_IDS, "cell_id", payload.values())
        return None

    def clean(self, records) -> tuple[list[RawRecord],
                                      list[tuple[RawRecord, RejectReason]]]:
        """Standalone cleaning pass with per-call (source, seq) dedup."""
        kept, rejected = [], []
        seen = set()
        for r in records:
            key = (r.source_tag, r.seq_no)
            if key in seen:
                rejected.append((r, _reject(RejectCode.DUPLICATE_SEQ, "seq_no",
                                            r.payload.values())))
                continue
            seen.add(key)
            reason = self.clean_one(r)
            if reason is None:
                kept.append(r)
            else:
                rejected.append((r, reason))
        return kept, rejected

    # -- transform ------------------------------------------------------
    def transform(self, record: RawRecord) -> CanonicalRecord:
        payload = record.payload
        if "timestamp_s" in payload:
            uid = str(payload["user_id"])
            # already-hashed ids pass through so canonicalization is idempotent
            user_hash = uid if _HASHED_ID.match(uid) \
                else hash_user_id(uid, self.hash_key)
            rate = (float(payload["rate_kbps"]) / 1000.0
                    if "rate_kbps" in payload else float(payload["rate_mbps"]))
            fields = {
                "t_s": float(payload["timestamp_s"]),
                "user_hash": user_hash,
                "cell_id": str(payload["cell_id"]),
                "beam_id": int(float(payload["beam_id"])),
                "signal_type": str(payload["signal_type"]),
                "rsrp_dbm": float(payload["rsrp_dbm"]),
                "sinr_db": float(payload["sinr_db"]),
                "rate_mbps": rate,
                "pos_x_m": float(payload["pos_x_m"]),
                "pos_y_m": float(payload["pos_y_m"]),
            }
            kind = "measurement"
            assert tuple(fields) == MEASUREMENT_FIELDS
        else:
            fields = {
                "t_s": float(payload["window_start_s"]),
                "cell_id": str(payload["cell_id"]),
                "window_len_s": float(payload["window_len_s"]),
                "throughput_mbps": float(payload["throughput_mbps"]),
                "rbur": float(payload["rbur"]),
                "num_users": int(float(payload["num_users"])),
                "power_w": float(payload["power_w"]),
                "collision_ratio": float(payload["collision_ratio"]),
            }
            kind = "kpi"
            assert tuple(fields) == KPI_FIELDS
        return CanonicalRecord(kind=kind, source_tag=record.source_tag,
                               ingest_time_s=fields["t_s"], fields=fields)

    def canonical_payload_view(self, rec: CanonicalRecord) -> RawRecord:
        """Re-expose a canonical record as a raw payload (idempotency check)."""
        f = rec.fields
        if rec.kind == "measurement":
            payload = {"timestamp_s": f["t_s"], "user_id": f["user_hash"],
                       "cell_id": f["cell_id"], "beam_id": f["beam_id"],
                       "signal_type": f["signal_type"], "rsrp_dbm": f["rsrp_dbm"],
                       "sinr_db": f["sinr_db"], "rate_mbps": f["rate_mbps"],
                       "pos_x_m": f["pos_x_m"], "pos_y_m": f["pos_y_m"]}
        else:
            payload = {"cell_id": f["cell_id"], "window_start_s": f["t_s"],
                       "window_len_s": f["window_len_s"],
                       "throughput_mbps": f["throughput_mbps"], "rbur": f["rbur"],
                       "num_users": f["num_users"], "power_w": f["power_w"],
                       "collision_ratio": f["collision_ratio"]}
        return RawRecord(rec.source_tag, 0, {k: str(v) for k, v in payload.items()})

    # -- load -----------------------------------------------------------
    def load(self, records: list[CanonicalRecord]) -> list[tuple[str, int]]:
        """Append canonical records to warehouse partitions; atomic per call."""
        per_subject: dict[str, list[dict]] = {}
        partitions: set[tuple[str, int]] = set()
        for rec in records:
            f = rec.fields
            bucket = int(f["t_s"] // 3600)
            if rec.kind == "measurement":
                row = dict(f)
                row["source_tag"] = rec.source_tag
                per_subject.setdefault(SUBJECT_BEAM, []).append(row)
                partitions.add((SUBJECT_BEAM, bucket))
            else:
                base = {"t_s": f["t_s"], "cell_id": f["cell_id"],
                        "source_tag": rec.source_tag}
                per_subject.setdefault(SUBJECT_THROUGHPUT, []).append(
                    {**base, "window_len_s": f["window_len_s"],
                     "throughput_mbps": f["throughput_mbps"],
                     "rbur": f["rbur"], "num_users": f["num_users"]})
                per_subject.setdefault(SUBJECT_INTERFERENCE, []).append(
                    {**base, "collision_ratio": f["collision_ratio"],
                     "num_users": f["num_users"]})
                per_subject.setdefault(SUBJECT_ENERGY, []).append(
                    {**base, "window_len_s": f["window_len_s"], "rbur": f["rbur"],
                     "power_w": f["power_w"],
                     "energy_wh": f["power_w"] * f["window_len_s"] / 3600.0})
                for subject in (SUBJECT_THROUGHPUT, SUBJECT_INTERFERENCE,
                                SUBJECT_ENERGY):
                    partitions.add((subject, bucket))
        for subject, rows in per_subject.items():
            self.warehouse.append(subject, rows)
        return sorted(partitions)

    # -- lifecycle --------------------------------------------------------
    def quiesce(self) -> None:
        """Barrier: every record whose `ingest_stream` call has returned is
        loaded or rejected.  That call does the work, so this always holds."""

    def start(self) -> None:
        """No-op: records are processed in the caller's thread."""

    def stop(self) -> None:
        """No-op: there is no worker to stop."""
