"""Ingest -> clean -> transform -> load pipeline feeding the warehouse.

Every input goes through one row parser (`parse_header`, `read_rows`) and
one batch-shaped path, `ingest_rows`: CSV and TXT files via `ingest_batch`,
the closed loop's in-memory simulator rows directly, and the socket (see
`sources`) and `ingest_stream` as batches of one.  For each header the
pipeline builds one row checker, which applies the cleaning rules in order,
parses each numeric field once, hashes the user id, converts kbps to Mbps
and emits the record's warehouse rows.  A batch of up to `BATCH_ROWS` rows
is deduplicated under one lock, checked row by row and loaded by one
`Warehouse.load` call, which admits each record against the running clock,
so a batch ends as its rows ingested one at a time would.  Every record
has met its fate when the call returns; concurrent producers, such as two
socket connections, share the dedup set and counters under one lock and
the warehouse under its own.
"""
from __future__ import annotations

import csv
import io
import re
import threading
from dataclasses import dataclass
from itertools import islice
from math import isfinite
from pathlib import Path

from ..errors import FileRejected, SchemaError, UnknownSource
from ..simcore.types import (KpiRecord, MeasurementRecord, RSRP_MAX_DBM,
                             RSRP_MIN_DBM, SINR_MAX_DB, SINR_MIN_DB)
from ..warehouse.subjects import (SUBJECT_BEAM, SUBJECT_ENERGY,
                                  SUBJECT_INTERFERENCE, SUBJECT_THROUGHPUT,
                                  bundled_subjects)
from .records import (RawRecord, RejectCode, RejectReason, SOURCE_TAGS,
                      hash_user_id)

MEASUREMENT_HEADER = MeasurementRecord.CSV_HEADER
MEASUREMENT_HEADER_KBPS = tuple(
    "rate_kbps" if c == "rate_mbps" else c for c in MEASUREMENT_HEADER)
KPI_HEADER = KpiRecord.CSV_HEADER

ENVELOPE = ("source_tag", "seq_no")

BATCH_ROWS = 4096  # rows per dedup pass and per Warehouse.load call

_HASHED_ID = re.compile(r"^h[0-9a-f]{16}$")
_INT64 = float(1 << 63)
_STRING_FIELDS = ("user_id", "cell_id", "signal_type")
# the warehouse columns the row checkers emit rows for, in order
_BUNDLED_COLUMNS = {s.name: s.columns for s in bundled_subjects()}


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


# the header of a RawRecord's payload, with the envelope carrying its
# source and sequence number
_RECORD_HEADERS = {schema: parse_header(ENVELOPE + schema) for schema in
                   (MEASUREMENT_HEADER, MEASUREMENT_HEADER_KBPS, KPI_HEADER)}


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


class _Rejected(Exception):
    """A record breaks a cleaning rule; args are (code, field)."""


def _unparsable(v) -> bool:
    try:
        float(v)
    except (TypeError, ValueError):
        return True
    return False


def _first(cells, fields, bad) -> str | None:
    """The first of the (name, index) fields whose cell is `bad`."""
    return next((name for name, i in fields if bad(cells[i])), None)


def _row_checker(header: Header, known_cells, hash_key: bytes):
    """A function of a row's cells and its source that returns the record's
    warehouse rows, as (subject, row tuple) pairs in the bundled subjects'
    column order, or raises _Rejected for the first cleaning rule the row
    breaks.  The rules, in order, each over the fields in header order:

    1. MissingField: an empty field;
    2. UnparsableValue: a numeric field that float() refuses;
    3. OutOfRange: a NaN or infinite numeric field;
    4. OutOfRange: an integral field (a time, beam id or user count) that
       does not fit in int64;
    5. OutOfRange: RSRP, then SINR, outside the reporting range;
    6. OutOfRange: a negative rate;
    7. InconsistentIds: a cell that is not in known_cells.

    User ids are hashed with hash_key; one that is already a hash passes
    through, so stored rows re-ingest unchanged."""
    offset = 2 if header.enveloped else 0
    index = {f: offset + i for i, f in enumerate(header.payload)}
    numeric = tuple((f, i) for f, i in index.items()
                    if f not in _STRING_FIELDS)
    payload = header.payload

    def reject_missing(cells):
        return _Rejected(RejectCode.MISSING_FIELD,
                         payload[cells.index("", offset) - offset])

    def reject_numeric(cells):
        """The reject for rules 2-3, or None if every value is finite."""
        field = _first(cells, numeric, _unparsable)
        if field is not None:
            return _Rejected(RejectCode.UNPARSABLE_VALUE, field)
        field = _first(cells, numeric, lambda v: not isfinite(float(v)))
        return None if field is None else _Rejected(RejectCode.OUT_OF_RANGE,
                                                    field)

    if payload[0] == "timestamp_s":
        i_t, i_u, i_c, i_b, i_s, i_r, i_q, i_v, i_x, i_y = index.values()
        rate_field = payload[7]
        kbps = rate_field == "rate_kbps"

        def check(cells, source):
            if "" in cells:
                raise reject_missing(cells)
            try:
                t, beam, rsrp, sinr, rate, x, y = (
                    float(cells[i_t]), float(cells[i_b]), float(cells[i_r]),
                    float(cells[i_q]), float(cells[i_v]), float(cells[i_x]),
                    float(cells[i_y]))
            except (TypeError, ValueError):
                raise reject_numeric(cells) from None
            # a sum that is finite has only finite terms
            if not isfinite(t + beam + rsrp + sinr + rate + x + y):
                rejected = reject_numeric(cells)
                if rejected:
                    raise rejected
            if not -_INT64 <= t < _INT64:  # bucketed by the hour
                raise _Rejected(RejectCode.OUT_OF_RANGE, "timestamp_s")
            if not -_INT64 <= beam < _INT64:  # stored as int64
                raise _Rejected(RejectCode.OUT_OF_RANGE, "beam_id")
            if not RSRP_MIN_DBM <= rsrp <= RSRP_MAX_DBM:
                raise _Rejected(RejectCode.OUT_OF_RANGE, "rsrp_dbm")
            if not SINR_MIN_DB <= sinr <= SINR_MAX_DB:
                raise _Rejected(RejectCode.OUT_OF_RANGE, "sinr_db")
            if rate < 0.0:
                raise _Rejected(RejectCode.OUT_OF_RANGE, rate_field)
            cell = cells[i_c]
            if cell not in known_cells:
                raise _Rejected(RejectCode.INCONSISTENT_IDS, "cell_id")
            uid = str(cells[i_u])
            user_hash = uid if _HASHED_ID.match(uid) \
                else hash_user_id(uid, hash_key)
            return ((SUBJECT_BEAM, (
                t, user_hash, str(cell), int(beam), str(cells[i_s]), rsrp,
                sinr, rate / 1000.0 if kbps else rate, x, y, source)),)
        return check

    i_c, i_t, i_w, i_p, i_r, i_n, i_pw, i_cr = index.values()

    def check(cells, source):
        if "" in cells:
            raise reject_missing(cells)
        try:
            t, length, tput, rbur, users, power, coll = (
                float(cells[i_t]), float(cells[i_w]), float(cells[i_p]),
                float(cells[i_r]), float(cells[i_n]), float(cells[i_pw]),
                float(cells[i_cr]))
        except (TypeError, ValueError):
            raise reject_numeric(cells) from None
        if not isfinite(t + length + tput + rbur + users + power + coll):
            rejected = reject_numeric(cells)
            if rejected:
                raise rejected
        if not -_INT64 <= t < _INT64:
            raise _Rejected(RejectCode.OUT_OF_RANGE, "window_start_s")
        if not -_INT64 <= users < _INT64:
            raise _Rejected(RejectCode.OUT_OF_RANGE, "num_users")
        if tput < 0.0:
            raise _Rejected(RejectCode.OUT_OF_RANGE, "throughput_mbps")
        cell = cells[i_c]
        if cell not in known_cells:
            raise _Rejected(RejectCode.INCONSISTENT_IDS, "cell_id")
        cell, users = str(cell), int(users)
        return ((SUBJECT_THROUGHPUT,
                 (t, cell, length, tput, rbur, users, source)),
                (SUBJECT_INTERFERENCE, (t, cell, coll, users, source)),
                (SUBJECT_ENERGY, (t, cell, length, rbur, power,
                                  power * length / 3600.0, source)))
    return check


class AcquisitionPipeline:
    def __init__(self, warehouse, known_cells,
                 hash_key: bytes = b"ranopt-default"):
        self.warehouse = warehouse
        self.known_cells = set(known_cells)
        self.hash_key = hash_key
        self._seen: set[tuple[str, int]] = set()
        self._auto_seq: dict[str, int] = {}
        self._checkers: dict[Header, object] = {}
        self._lock = threading.Lock()
        self.counters = {"ingested": 0, "duplicates": 0, "kept": 0,
                         "rejected": 0, "files_rejected": 0}
        self.rejects: list[tuple[RawRecord, RejectReason]] = []
        self.file_rejects: list[tuple[str, str]] = []  # (path, message)

    # -- stream ingestion ----------------------------------------------
    def ingest_stream(self, record: RawRecord) -> str:
        """Ingest one record as a batch of one; returns "accepted" (kept or
        rejected) or "duplicate", which never reaches the later stages.  A
        payload field the record lacks counts as empty."""
        payload = record.payload
        if "timestamp_s" in payload or "rsrp_dbm" in payload:
            schema = (MEASUREMENT_HEADER_KBPS if "rate_kbps" in payload
                      else MEASUREMENT_HEADER)
        else:
            schema = KPI_HEADER
        cells = [record.source_tag, record.seq_no] + [
            payload.get(f, "") for f in schema]
        accepted, _ = self._ingest(_RECORD_HEADERS[schema], [(None, cells)],
                                   record)
        return "accepted" if accepted else "duplicate"

    # -- row and batch ingestion ----------------------------------------
    def ingest_rows(self, header: Header, rows
                    ) -> tuple[int, list[RejectReason]]:
        """Ingest (line_no, cells) pairs, BATCH_ROWS at a time; returns
        (accepted, line rejects).  A row without the envelope gets the next
        sequence number of the default source.  A row naming a source that
        is not registered raises UnknownSource once the rows before it have
        met their fates."""
        rows = iter(rows)
        accepted, line_rejects = 0, []
        while batch := list(islice(rows, BATCH_ROWS)):
            n, rejects = self._ingest(header, batch)
            accepted += n
            line_rejects += rejects
        return accepted, line_rejects

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

    def _checker(self, header: Header):
        """The header's row checker, built on first use; the warehouse
        must hold the bundled subjects the checker emits rows for."""
        check = self._checkers.get(header)
        if check is None:
            subjects = ((SUBJECT_BEAM,) if header.payload[0] == "timestamp_s"
                        else (SUBJECT_THROUGHPUT, SUBJECT_INTERFERENCE,
                              SUBJECT_ENERGY))
            for subject in subjects:
                if (self.warehouse.subject_spec(subject).columns
                        != _BUNDLED_COLUMNS[subject]):
                    raise SchemaError(f"subject {subject!r} lacks the "
                                      f"bundled columns the pipeline loads")
            check = _row_checker(header, self.known_cells, self.hash_key)
            self._checkers[header] = check
        return check

    def _ingest(self, header: Header, rows, record: RawRecord | None = None
                ) -> tuple[int, list[RejectReason]]:
        """Parse, dedup, check, load and count one batch of (line_no, cells)
        rows; returns (records not duplicates, line rejects).  `record` is
        the RawRecord the batch's one row was made from, if any."""
        check = self._checker(header)
        width, enveloped = len(header.columns), header.enveloped
        line_rejects, fresh, unknown = [], [], None
        with self._lock:
            seen, duplicates = self._seen, 0
            for line_no, cells in rows:
                if len(cells) != width:
                    line_rejects.append(_reject(RejectCode.UNPARSABLE_VALUE,
                                                None, cells, line_no))
                    continue
                if enveloped:
                    try:
                        seq = int(cells[1])
                    except ValueError:
                        line_rejects.append(_reject(
                            RejectCode.UNPARSABLE_VALUE, "seq_no", cells,
                            line_no))
                        continue
                    source = cells[0]
                    if source not in SOURCE_TAGS:
                        unknown = source
                        break
                else:
                    source = header.default_source
                    seq = self._auto_seq.get(source, 0)
                    self._auto_seq[source] = seq + 1
                key = (source, seq)
                if key in seen:
                    duplicates += 1
                    continue
                seen.add(key)
                fresh.append((source, seq, cells))
            self.counters["duplicates"] += duplicates
            self.counters["ingested"] += len(fresh)

        loads, bad = [], []  # bad: (position in fresh, code, field)
        for i, (source, _, cells) in enumerate(fresh):
            try:
                loads.append(check(cells, source))
            except _Rejected as r:
                bad.append((i, *r.args))
        refused = self.warehouse.load(loads) if loads else []
        if refused:  # older than the warehouse keeps, or far ahead of it
            cleaned = {i for i, _, _ in bad}
            loaded = [i for i in range(len(fresh)) if i not in cleaned]
            bad += [(loaded[j], RejectCode.OUT_OF_RANGE, "t_s")
                    for j in refused]
            bad.sort()
        offset = 2 if enveloped else 0
        rejects = []
        for i, code, field in bad:
            source, seq, cells = fresh[i]
            raw = record or RawRecord(source, seq, dict(zip(
                header.payload, cells[offset:])))
            rejects.append((raw, _reject(code, field, raw.payload.values())))
        with self._lock:
            self.counters["kept"] += len(fresh) - len(bad)
            self.counters["rejected"] += len(bad)
            self.rejects += rejects
        if unknown is not None:
            raise UnknownSource(f"source {unknown!r} not registered")
        return len(fresh), line_rejects

    # -- lifecycle --------------------------------------------------------
    def quiesce(self) -> None:
        """Barrier: every record whose ingest call has returned is loaded or
        rejected.  That call does the work, so this always holds."""

    def start(self) -> None:
        """No-op: records are processed in the caller's thread."""

    def stop(self) -> None:
        """No-op: there is no worker to stop."""
