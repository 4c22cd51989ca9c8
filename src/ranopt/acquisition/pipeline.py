"""Ingest -> clean -> transform -> load pipeline feeding the warehouse.

Every input goes through one row parser (`parse_header`, `read_rows`) and
one column-shaped path, `ingest_rows`: CSV and TXT files via `ingest_batch`,
the closed loop's in-memory simulator rows directly, and the socket (see
`sources`) and `ingest_stream` as batches of one.  A batch of up to
`BATCH_ROWS` rows is deduplicated under one lock by set operations over
its (source, seq) keys, and its fresh rows are transposed into columns
once.  The header's column checker then applies the cleaning rules in
order, each as a pass over whole columns, parses each numeric column once,
hashes the user ids, converts kbps to Mbps and emits the batch's warehouse
columns, which one `Warehouse.load` call admits against the running clock,
so a batch ends as its rows ingested one at a time would.  Every record
has met its fate when the call returns; concurrent producers, such as two
socket connections, share the dedup set and counters under one lock and
the warehouse under its own.
"""
from __future__ import annotations

import csv
import functools
import io
import os
import re
import threading
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from math import inf, isfinite, nan, nextafter
from operator import and_, contains, eq, is_, itemgetter, not_

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
# distinct user ids a column checker keeps the hashes of: a 21-cell
# telemetry day sees about 1,050 users in about 23,700 measurements
USER_HASHES_KEPT = 4096

_HASHED_ID = re.compile(r"h[0-9a-f]{16}")
_SOURCES = frozenset(SOURCE_TAGS)
_INT64 = float(1 << 63)
_STRING_FIELDS = ("user_id", "cell_id", "signal_type")
# the warehouse columns the column checkers emit, in order
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


def _read_bytes(path) -> bytes:
    """A file's bytes, read by plain system calls."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 20):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _where(flags) -> list[int]:
    """The positions of the true flags."""
    return list(compress(count(), flags))


def _parse_on(parsed: list, floats) -> list[int]:
    """Go on with `floats`, a map of float() over values, after it refused
    the value that follows `parsed`: put NaN for each refused value into
    `parsed`, and return their positions."""
    bad = []
    while True:
        bad.append(len(parsed))
        parsed.append(nan)
        try:
            parsed.extend(floats)
            return bad
        except (TypeError, ValueError):
            pass


def _note(failed: dict, code: RejectCode, field: str, rows) -> None:
    """Record that the rows break a rule on this field, unless they broke
    an earlier one: `failed` maps each row to its first (code, field)."""
    for p in rows:
        failed.setdefault(p, (code, field))


@functools.cache
def _layout(header: Header):
    """What a header's column checker needs to know of its columns."""
    payload = header.payload
    offset = 2 if header.enveloped else 0
    # (column index, name) of the payload fields, the numeric ones and the
    # string ones, in header order
    fields = tuple((offset + i, f) for i, f in enumerate(payload))
    numeric = tuple((i, f) for i, f in fields if f not in _STRING_FIELDS)
    strings = tuple((i, f) for i, f in fields if f in _STRING_FIELDS)
    # once parsed, the columns are the numeric ones as floats, then the
    # string ones, the sources and the rows' batch indexes
    names = tuple(f for _, f in numeric)
    at = {f: j for j, f in enumerate(names + tuple(f for _, f in strings))}
    measurement = payload[0] == "timestamp_s"
    # rules 4-6 as closed ranges of float values; the int64 bound is open
    int64 = (-_INT64, nextafter(_INT64, 0.0))
    ranges = tuple((at[f], f, lo, hi) for f, lo, hi in (
        (payload[0 if measurement else 1], *int64),
        *((("beam_id", *int64), ("rsrp_dbm", RSRP_MIN_DBM, RSRP_MAX_DBM),
           ("sinr_db", SINR_MIN_DB, SINR_MAX_DB), (payload[7], 0.0, inf))
          if measurement else
          (("num_users", *int64), ("throughput_mbps", 0.0, inf)))))
    return (fields, names, ranges, at["cell_id"],
            tuple(i for i, _ in strings),
            itemgetter(*(i for i, _ in numeric)),
            itemgetter(*(i for i, _ in strings), -2, -1),
            measurement, payload[7] == "rate_kbps")


def _column_checker(header: Header, known_cells, hash_key: bytes):
    """A function of a batch's columns, in header order, and its sources
    column that returns (bad, kept, batch): the (row, code, field) of each
    rejected row, in row order; the indexes of the kept rows; and their
    warehouse columns, as {subject: columns} in the bundled subjects'
    column order, for `Warehouse.load` to cast.  Each cleaning rule is one
    pass over whole columns, in this order, each over the fields in header
    order:

    1. MissingField: an empty field;
    2. UnparsableValue: a numeric field that float() refuses;
    3. OutOfRange: a NaN or infinite numeric field;
    4. OutOfRange: an integral field (a time, beam id or user count) that
       does not fit in int64;
    5. OutOfRange: RSRP, then SINR, outside the reporting range;
    6. OutOfRange: a negative rate;
    7. InconsistentIds: a cell that is not in known_cells.

    Only a pass that fails looks at single rows: it finds each row that
    breaks its rule and the row's first field that does.  A row is
    rejected for the first rule it breaks; the rows left are transformed.
    User ids are hashed with hash_key; one that is already a hash passes
    through, so stored rows re-ingest unchanged.  The checker keeps what
    it stored for the last few thousand ids it saw."""
    (fields, names, ranges, i_cell, string_indexes,
     numeric_columns, other_columns, measurement, kbps) = _layout(header)
    hashed = _HASHED_ID.fullmatch
    stored_ids: dict[str, str] = {}  # user id -> what is stored for it

    def user_hashes(user_ids) -> list[str]:
        user_ids = list(map(str, user_ids))
        stored = list(map(stored_ids.get, user_ids))
        if None in stored:
            if len(stored_ids) > USER_HASHES_KEPT:
                stored_ids.clear()
            for p in _where(map(is_, stored, repeat(None))):
                u = user_ids[p]
                stored[p] = stored_ids[u] = (
                    u if hashed(u) else hash_user_id(u, hash_key))
        return stored

    def check(columns, sources):
        n = len(sources)
        columns = [*columns, sources, range(n)]
        # row -> (code, field) of the first rule it breaks; a pass reads
        # every row, and a row that broke an earlier rule keeps that reject
        failed = {}
        # every numeric value, column after column; float() refuses ""
        floats, unparsable = [], ()
        values = map(float, chain.from_iterable(numeric_columns(columns)))
        try:
            floats.extend(values)
        except (TypeError, ValueError):
            unparsable = _parse_on(floats, values)
        if unparsable or any(map(contains, map(
                columns.__getitem__, string_indexes), repeat(""))):
            for i, f in fields:
                if "" in columns[i]:
                    _note(failed, RejectCode.MISSING_FIELD, f,
                          _where(map(eq, columns[i], repeat(""))))
        for q in unparsable:
            failed.setdefault(q % n, (RejectCode.UNPARSABLE_VALUE,
                                      names[q // n]))
        columns = [*(floats[i:i + n] for i in range(0, len(floats), n)),
                   *other_columns(columns)]
        # a sum that is finite has only finite terms
        if not isfinite(sum(floats)):
            for j, f in enumerate(names):
                if not isfinite(sum(columns[j])):
                    _note(failed, RejectCode.OUT_OF_RANGE, f,
                          _where(map(not_, map(isfinite, columns[j]))))
        for j, f, lo, hi in ranges:
            values = columns[j]
            if not (lo <= min(values) and max(values) <= hi):
                _note(failed, RejectCode.OUT_OF_RANGE, f, _where(map(
                    not_, map(and_, map(lo.__le__, values),
                              map(hi.__ge__, values)))))
        if not known_cells.issuperset(columns[i_cell]):
            _note(failed, RejectCode.INCONSISTENT_IDS, "cell_id",
                  _where(map(not_, map(known_cells.__contains__,
                                       columns[i_cell]))))
        bad = []
        if failed:
            keep = [True] * n
            for p in failed:
                keep[p] = False
            columns = [list(compress(c, keep)) for c in columns]
            bad = sorted((p, *reason) for p, reason in failed.items())
        if measurement:
            t, beam, rsrp, sinr, rate, x, y, uid, cell, signal, sources, \
                kept = columns
            return bad, kept, {SUBJECT_BEAM: [
                t, user_hashes(uid), cell, beam, signal, rsrp, sinr,
                [v / 1000.0 for v in rate] if kbps else rate, x, y, sources]}
        t, length, tput, rbur, users, power, coll, cell, sources, \
            kept = columns
        return bad, kept, {
            SUBJECT_THROUGHPUT: [t, cell, length, tput, rbur, users, sources],
            SUBJECT_INTERFERENCE: [t, cell, coll, users, sources],
            SUBJECT_ENERGY: [t, cell, length, rbur, power,
                             [p * w / 3600.0 for p, w in zip(power, length)],
                             sources]}
    return check


class AcquisitionPipeline:
    def __init__(self, warehouse, known_cells,
                 hash_key: bytes = b"ranopt-default"):
        self.warehouse = warehouse
        self.known_cells = set(known_cells)
        self.hash_key = hash_key
        self._seen: set[tuple[str, int]] = set()
        self._auto_seq: dict[str, int] = {}
        self._checkers: dict[tuple, object] = {}  # by header columns
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
        path = os.fspath(file_path)
        delim = "\t" if os.path.splitext(path)[1].lower() == ".txt" else ","
        try:
            text = _read_bytes(path).decode("utf-8")
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
        """The header's column checker, built on first use; the warehouse
        must hold the bundled subjects the checker emits columns for."""
        check = self._checkers.get(header.columns)
        if check is None:
            subjects = ((SUBJECT_BEAM,) if header.payload[0] == "timestamp_s"
                        else (SUBJECT_THROUGHPUT, SUBJECT_INTERFERENCE,
                              SUBJECT_ENERGY))
            for subject in subjects:
                if (self.warehouse.subject_spec(subject).columns
                        != _BUNDLED_COLUMNS[subject]):
                    raise SchemaError(f"subject {subject!r} lacks the "
                                      f"bundled columns the pipeline loads")
            check = _column_checker(header, self.known_cells, self.hash_key)
            self._checkers[header.columns] = check
        return check

    def _envelope(self, header: Header, rows):
        """(keys, cells, line rejects, unknown source) of a batch's
        (line_no, cells) rows, row by row: the (source, seq) key and cells
        of each row that has the header's width and a sequence number,
        numbering rows without the envelope; rows after one that names an
        unknown source are not read."""
        width = len(header.columns)
        keys, cells, line_rejects = [], [], []
        for line_no, row in rows:
            if len(row) != width:
                line_rejects.append(_reject(RejectCode.UNPARSABLE_VALUE,
                                            None, row, line_no))
                continue
            if header.enveloped:
                try:
                    seq = int(row[1])
                except ValueError:
                    line_rejects.append(_reject(
                        RejectCode.UNPARSABLE_VALUE, "seq_no", row, line_no))
                    continue
                source = row[0]
                if source not in SOURCE_TAGS:
                    return keys, cells, line_rejects, source
            else:
                source = header.default_source
                seq = self._auto_seq.get(source, 0)
                self._auto_seq[source] = seq + 1
            keys.append((source, seq))
            cells.append(row)
        return keys, cells, line_rejects, None

    def _ingest(self, header: Header, rows, record: RawRecord | None = None
                ) -> tuple[int, list[RejectReason]]:
        """Dedup, check, load and count one batch of (line_no, cells) rows;
        returns (records not duplicates, line rejects).  `record` is the
        RawRecord the batch's one row was made from, if any.  The fresh rows
        are transposed into columns once; only a batch with a bad sequence
        number or an unknown source has its envelope read row by row."""
        check = self._checker(header)
        cells = [row for _, row in rows]
        line_rejects, unknown = [], None
        with self._lock:
            width, keys = len(header.columns), None
            if set(map(len, cells)) - {width}:  # lines of another width
                fits = list(map(eq, map(len, cells), repeat(width)))
                line_rejects = [
                    _reject(RejectCode.UNPARSABLE_VALUE, None, row, line_no)
                    for line_no, row in compress(rows, map(not_, fits))]
                cells = list(compress(cells, fits))
            if not cells:
                keys = []
            elif not header.enveloped:
                source = header.default_source
                seq = self._auto_seq.get(source, 0)
                self._auto_seq[source] = seq + len(cells)
                keys = list(zip(repeat(source), range(seq, seq + len(cells))))
            else:
                sources = list(map(itemgetter(0), cells))
                if _SOURCES.issuperset(sources):
                    try:
                        keys = list(zip(sources, map(int, map(itemgetter(1),
                                                              cells))))
                    except ValueError:
                        pass
            if keys is None:
                keys, cells, line_rejects, unknown = self._envelope(header,
                                                                    rows)
            seen = self._seen
            if len(set(keys)) == len(keys) and seen.isdisjoint(keys):
                seen.update(keys)
            else:  # a repeat: row by row, the first row of a new key is fresh
                fresh = []
                for key in keys:
                    fresh.append(key not in seen)
                    seen.add(key)
                self.counters["duplicates"] += len(keys) - sum(fresh)
                keys = list(compress(keys, fresh))
                cells = list(compress(cells, fresh))
            self.counters["ingested"] += len(keys)
        columns = list(zip(*cells))

        bad = []
        if keys:
            bad, kept, batch = check(columns, columns[0] if header.enveloped
                                     else (header.default_source,) * len(keys))
            refused = self.warehouse.load(batch) if kept else []
            if refused:  # older than the warehouse keeps, or far ahead of it
                bad += [(kept[j], RejectCode.OUT_OF_RANGE, "t_s")
                        for j in refused]
                bad.sort()
        rejects = []
        for i, code, field in bad:
            raw = record or RawRecord(*keys[i], dict(zip(header.payload, [
                c[i] for c in columns[2 if header.enveloped else 0:]])))
            rejects.append((raw, _reject(code, field, raw.payload.values())))
        with self._lock:
            self.counters["kept"] += len(keys) - len(bad)
            self.counters["rejected"] += len(bad)
            self.rejects += rejects
        if unknown is not None:
            raise UnknownSource(f"source {unknown!r} not registered")
        return len(keys), line_rejects

    # -- lifecycle --------------------------------------------------------
    def quiesce(self) -> None:
        """Barrier: every record whose ingest call has returned is loaded or
        rejected.  That call does the work, so this always holds."""

    def start(self) -> None:
        """No-op: records are processed in the caller's thread."""

    def stop(self) -> None:
        """No-op: there is no worker to stop."""
