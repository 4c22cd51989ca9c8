"""Ingest -> clean -> transform -> load pipeline feeding the warehouse.

Streaming records arrive one at a time (in-process or via the socket/watch
bindings); batch files are CSV or tab-separated TXT. A bounded buffer sits
between ingestion and the clean/transform/load stages; producers block when
it is full while a worker runs, and drain it inline when none was started.
"""
from __future__ import annotations

import queue
import re
import threading
from pathlib import Path

from ..errors import FileRejected, UnknownSource
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

_HASHED_ID = re.compile(r"^h[0-9a-f]{16}$")


class AcquisitionPipeline:
    def __init__(self, warehouse, known_cells, hash_key: bytes = b"ranopt-default",
                 sources=SOURCE_TAGS, buffer_size: int = 1024):
        self.warehouse = warehouse
        self.known_cells = set(known_cells)
        self.hash_key = hash_key
        self.sources = set(sources)
        self._queue: queue.Queue = queue.Queue(maxsize=buffer_size)
        self._seen: set[tuple[str, int]] = set()
        self._auto_seq: dict[str, int] = {}
        self._worker: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self.counters = {"ingested": 0, "duplicates": 0, "kept": 0, "rejected": 0}
        self.rejects: list[tuple[RawRecord, RejectReason]] = []

    # -- stream ingestion ----------------------------------------------
    def ingest_stream(self, record: RawRecord) -> str:
        """Returns "accepted" or "duplicate"; duplicates never reach the pipeline."""
        if record.source_tag not in self.sources:
            raise UnknownSource(f"source {record.source_tag!r} not registered")
        with self._lock:
            key = (record.source_tag, record.seq_no)
            if key in self._seen:
                self.counters["duplicates"] += 1
                return "duplicate"
            self._seen.add(key)
            self.counters["ingested"] += 1
        while True:  # a worker makes room; without one, drain inline
            try:
                self._queue.put(record, block=self._worker is not None)
                return "accepted"
            except queue.Full:
                self.drain()

    def next_seq(self, source_tag: str) -> int:
        with self._lock:
            n = self._auto_seq.get(source_tag, 0)
            self._auto_seq[source_tag] = n + 1
            return n

    # -- batch ingestion ------------------------------------------------
    def ingest_batch(self, file_path) -> tuple[int, list[RejectReason]]:
        """Ingest a CSV (comma) or TXT (tab) file; header mismatch rejects
        the whole file, unreadable lines reject individually."""
        path = Path(file_path)
        delim = "\t" if path.suffix.lower() == ".txt" else ","
        with open(path, newline="") as f:
            lines = f.read().splitlines()
        if not lines or not lines[0].strip():
            raise FileRejected(f"{path}: missing header")
        header = tuple(lines[0].split(delim))
        has_envelope = header[:2] == ("source_tag", "seq_no")
        payload_header = header[2:] if has_envelope else header
        if payload_header not in (MEASUREMENT_HEADER, MEASUREMENT_HEADER_KBPS,
                                  KPI_HEADER):
            raise FileRejected(f"{path}: unrecognized header {payload_header}")
        default_source = ("drive-test"
                          if payload_header[0] == "timestamp_s" else
                          "network-management")
        accepted = 0
        rejects: list[RejectReason] = []
        for line_no, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(delim)
            if len(parts) != len(header):
                rejects.append(RejectReason(RejectCode.UNPARSABLE_VALUE, None,
                                            line, line_no))
                continue
            if has_envelope:
                source = parts[0]
                try:
                    seq = int(parts[1])
                except ValueError:
                    rejects.append(RejectReason(RejectCode.UNPARSABLE_VALUE,
                                                "seq_no", line, line_no))
                    continue
                payload = dict(zip(payload_header, parts[2:]))
            else:
                source = default_source
                seq = self.next_seq(source)
                payload = dict(zip(payload_header, parts))
            ack = self.ingest_stream(RawRecord(source, seq, payload))
            if ack == "accepted":
                accepted += 1
        return accepted, rejects

    # -- clean ----------------------------------------------------------
    def clean_one(self, record: RawRecord) -> RejectReason | None:
        payload = record.payload
        raw = ",".join(str(v) for v in payload.values())
        if "timestamp_s" in payload or "rsrp_dbm" in payload:
            mandatory = MEASUREMENT_HEADER_KBPS if "rate_kbps" in payload \
                else MEASUREMENT_HEADER
        else:
            mandatory = KPI_HEADER
        for f in mandatory:
            if f not in payload or str(payload[f]) == "":
                return RejectReason(RejectCode.MISSING_FIELD, f, raw)
        numeric = [f for f in mandatory
                   if f not in ("user_id", "cell_id", "signal_type")]
        vals = {}
        for f in numeric:
            try:
                vals[f] = float(payload[f])
            except (TypeError, ValueError):
                return RejectReason(RejectCode.UNPARSABLE_VALUE, f, raw)
        if "rsrp_dbm" in vals and not (RSRP_MIN_DBM <= vals["rsrp_dbm"] <= RSRP_MAX_DBM):
            return RejectReason(RejectCode.OUT_OF_RANGE, "rsrp_dbm", raw)
        if "sinr_db" in vals and not (SINR_MIN_DB <= vals["sinr_db"] <= SINR_MAX_DB):
            return RejectReason(RejectCode.OUT_OF_RANGE, "sinr_db", raw)
        for rate_field in ("rate_mbps", "rate_kbps", "throughput_mbps"):
            if rate_field in vals and vals[rate_field] < 0.0:
                return RejectReason(RejectCode.OUT_OF_RANGE, rate_field, raw)
        if payload.get("cell_id") not in self.known_cells:
            return RejectReason(RejectCode.INCONSISTENT_IDS, "cell_id", raw)
        return None

    def clean(self, records) -> tuple[list[RawRecord],
                                      list[tuple[RawRecord, RejectReason]]]:
        """Standalone cleaning pass with per-call (source, seq) dedup."""
        kept, rejected = [], []
        seen = set()
        for r in records:
            key = (r.source_tag, r.seq_no)
            if key in seen:
                rejected.append((r, RejectReason(
                    RejectCode.DUPLICATE_SEQ, "seq_no",
                    ",".join(str(v) for v in r.payload.values()))))
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

    # -- pipeline driving ----------------------------------------------
    def _process_one(self, record: RawRecord) -> None:
        reason = self.clean_one(record)
        if reason is not None:
            with self._lock:
                self.counters["rejected"] += 1
                self.rejects.append((record, reason))
            return
        canonical = self.transform(record)
        self.load([canonical])
        with self._lock:
            self.counters["kept"] += 1

    def drain(self) -> None:
        """Synchronously process everything currently buffered."""
        while True:
            try:
                record = self._queue.get_nowait()
            except queue.Empty:
                return
            try:
                self._process_one(record)
            finally:
                self._queue.task_done()

    def start(self) -> None:
        if self._worker is not None:
            return
        self._stop.clear()
        self._worker = threading.Thread(target=self._run, daemon=True)
        self._worker.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                record = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            try:
                self._process_one(record)
            finally:
                self._queue.task_done()

    def quiesce(self) -> None:
        """Block until the buffer is fully processed."""
        if self._worker is None:
            self.drain()
        else:
            self._queue.join()

    def stop(self) -> None:
        if self._worker is not None:
            self.quiesce()
            self._stop.set()
            self._worker.join()
            self._worker = None
