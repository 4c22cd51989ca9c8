import csv
import io
import socket
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ranopt.acquisition import (AcquisitionPipeline, RawRecord, RejectCode,
                                StreamServer, hash_user_id, watch_directory)
from ranopt.acquisition.pipeline import ENVELOPE, parse_header
from ranopt.errors import FileRejected, UnknownSource
from ranopt.simcore import emit_window_csvs, step
from ranopt.warehouse import (QueryTask, Warehouse, bundled_subjects,
                              create_bundled_subjects)

from conftest import make_scenario
from naive_oracle import NaivePipeline, NaiveWarehouse

KNOWN_CELLS = {"c1", "c2"}


def meas_payload(**over):
    p = {"timestamp_s": "0.0", "user_id": "alice", "cell_id": "c1",
         "beam_id": "3", "signal_type": "SSB", "rsrp_dbm": "-80.5",
         "sinr_db": "12.0", "rate_mbps": "55.0", "pos_x_m": "10.0",
         "pos_y_m": "20.0"}
    p.update({k: str(v) for k, v in over.items()})
    return p


def kpi_payload(**over):
    p = {"cell_id": "c1", "window_start_s": "0.0", "window_len_s": "3600.0",
         "throughput_mbps": "120.0", "rbur": "0.4", "num_users": "7",
         "power_w": "800.0", "collision_ratio": "0.1"}
    p.update({k: str(v) for k, v in over.items()})
    return p


MEAS_COLS = tuple(meas_payload())
KPI_COLS = tuple(kpi_payload())


def fresh_pipeline():
    wh = Warehouse()
    create_bundled_subjects(wh)
    return AcquisitionPipeline(wh, KNOWN_CELLS, hash_key=b"test-key"), wh


def csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def send_over_tcp(pipe, text) -> list[str]:
    """Send text (or bytes) to a stream server; returns its acks."""
    server = StreamServer(("127.0.0.1", 0), pipe)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        with socket.create_connection(server.server_address) as s:
            s.sendall(text.encode() if isinstance(text, str) else text)
            s.shutdown(socket.SHUT_WR)
            return s.makefile("r").read().splitlines()
    finally:
        server.shutdown()
        server.server_close()


class TestIngestStream:
    def test_duplicate_acked_but_dropped(self):
        pipe, wh = fresh_pipeline()
        rec = RawRecord("drive-test", 1, meas_payload())
        assert pipe.ingest_stream(rec) == "accepted"
        assert pipe.ingest_stream(rec) == "duplicate"
        pipe.quiesce()
        assert wh.row_count("beam-management") == 1

    def test_unknown_source(self):
        pipe, _ = fresh_pipeline()
        with pytest.raises(UnknownSource):
            pipe.ingest_stream(RawRecord("mystery", 0, meas_payload()))

    def test_count_oracle_10k(self):
        pipe, wh = fresh_pipeline()
        for i in range(10_000):
            pipe.ingest_stream(RawRecord("drive-test", i, meas_payload(
                timestamp_s=float(i), user_id=f"u{i % 13}")))
        pipe.quiesce()
        assert pipe.counters["ingested"] == 10_000
        assert pipe.counters["kept"] == 10_000
        assert wh.row_count("beam-management") == 10_000

    def test_dedup_check_and_add_hold_the_lock(self):
        class SlowSet(set):
            def __contains__(self, key):
                found = super().__contains__(key)
                time.sleep(0.05)  # a thread switch between check and add
                return found

        pipe, wh = fresh_pipeline()
        pipe._seen = SlowSet()
        rec = RawRecord("drive-test", 1, meas_payload())
        acks = []
        threads = [threading.Thread(
            target=lambda: acks.append(pipe.ingest_stream(rec)))
            for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert sorted(acks) == ["accepted", "duplicate"]
        assert wh.row_count("beam-management") == 1

    def test_per_source_order_preserved(self):
        pipe, wh = fresh_pipeline()
        for i in range(30):
            pipe.ingest_stream(RawRecord("drive-test", i, meas_payload(
                timestamp_s=float(i))))
            pipe.ingest_stream(RawRecord("air-interface", i, meas_payload(
                timestamp_s=float(1000 + i))))
        pipe.quiesce()
        rows = wh.scan("beam-management")
        by_source = {}
        for r in rows:
            by_source.setdefault(r[-1], []).append(r[0])
        for times in by_source.values():
            assert times == sorted(times)


def fate(payload, source="drive-test"):
    """The reject reason one record meets in a fresh pipeline, or None if
    it is kept."""
    pipe, _ = fresh_pipeline()
    assert pipe.ingest_stream(RawRecord(source, 0, payload)) == "accepted"
    return pipe.rejects[0][1] if pipe.rejects else None


def stored_payload(row):
    """A stored beam-management row as a measurement payload."""
    t, user_hash, cell, beam, signal, rsrp, sinr, rate, x, y, _ = row
    return meas_payload(timestamp_s=t, user_id=user_hash, cell_id=cell,
                        beam_id=beam, signal_type=signal, rsrp_dbm=rsrp,
                        sinr_db=sinr, rate_mbps=rate, pos_x_m=x, pos_y_m=y)


class TestClean:
    def test_rsrp_out_of_range(self):
        reason = fate(meas_payload(rsrp_dbm=-300))
        assert reason.code == RejectCode.OUT_OF_RANGE
        assert reason.field == "rsrp_dbm"

    def test_unknown_cell(self):
        reason = fate(meas_payload(cell_id="ghost"))
        assert reason.code == RejectCode.INCONSISTENT_IDS

    def test_missing_field(self):
        p = meas_payload()
        del p["sinr_db"]
        reason = fate(p)
        assert reason.code == RejectCode.MISSING_FIELD
        assert reason.field == "sinr_db"

    def test_unparsable_value(self):
        reason = fate(meas_payload(rate_mbps="fast"))
        assert reason.code == RejectCode.UNPARSABLE_VALUE

    def test_duplicate_within_batch(self):
        pipe, wh = fresh_pipeline()
        row = ("drive-test", "5") + tuple(meas_payload().values())
        header = parse_header(ENVELOPE + MEAS_COLS)
        assert pipe.ingest_rows(header, [(2, row), (3, row)]) == (1, [])
        c = pipe.counters
        assert (c["ingested"], c["duplicates"], c["kept"]) == (1, 1, 1)
        assert wh.row_count("beam-management") == 1

    def test_clean_idempotent(self):
        pipe, wh = fresh_pipeline()
        for i, v in enumerate([-80, -300, -90]):
            pipe.ingest_stream(RawRecord("drive-test", i, meas_payload(
                timestamp_s=i, rsrp_dbm=v)))
        kept = wh.scan("beam-management")
        assert len(kept) == 2 and len(pipe.rejects) == 1
        again, wh2 = fresh_pipeline()
        for i, row in enumerate(kept):
            again.ingest_stream(RawRecord("drive-test", i,
                                          stored_payload(row)))
        assert again.rejects == [] and wh2.scan("beam-management") == kept

    def test_unstorable_integral_values(self):
        for kind, field, value in (
                (meas_payload, "beam_id", "1e30"),
                (meas_payload, "timestamp_s", "nan"),
                (kpi_payload, "num_users", "inf"),
                (kpi_payload, "window_start_s", "-inf")):
            reason = fate(kind(**{field: value}))
            assert (reason.code, reason.field) == (RejectCode.OUT_OF_RANGE,
                                                   field)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["m", "k"]), data=st.data(),
           value=st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf",
                                  "+Infinity", "1e999", "-1e400"]))
    def test_non_finite_value_is_out_of_range(self, kind, data, value):
        good = meas_payload() if kind == "m" else kpi_payload()
        field = data.draw(st.sampled_from(
            [f for f in good if f not in ("user_id", "cell_id",
                                          "signal_type")]))
        source = "drive-test" if kind == "m" else "network-management"
        bad = RawRecord(source, 1, {**good, field: value})
        pipe, wh = fresh_pipeline()
        pipe.ingest_stream(RawRecord(source, 0, good))
        pipe.ingest_stream(bad)
        c = pipe.counters
        assert (c["ingested"], c["kept"], c["rejected"]) == (2, 1, 1)
        [(record, reason)] = pipe.rejects
        assert record is bad
        assert (reason.code, reason.field) == (RejectCode.OUT_OF_RANGE, field)
        subject, column = (("beam-management", "rate_mbps") if kind == "m"
                           else ("energy", "energy_wh"))
        [(total,)] = wh.query(QueryTask(
            subject=subject, aggregates=[("sum", column)])).rows
        assert total == (55.0 if kind == "m" else 800.0)


class TestTransform:
    def test_kbps_unit_normalization(self):
        pipe, wh = fresh_pipeline()
        p = meas_payload()
        p["rate_kbps"] = p.pop("rate_mbps")
        p["rate_kbps"] = "55000.0"
        pipe.ingest_stream(RawRecord("drive-test", 0, p))
        [row] = wh.scan("beam-management")
        assert row[7] == pytest.approx(55.0)

    def test_hash_deterministic(self):
        pipe, wh = fresh_pipeline()
        pipe.ingest_stream(RawRecord("drive-test", 0, meas_payload()))
        pipe.ingest_stream(RawRecord("drive-test", 1, meas_payload()))
        [r1, r2] = wh.scan("beam-management")
        assert r1[1] == r2[1]
        assert r1[1] != "alice"

    def test_canonicalization_idempotent(self):
        pipe, wh = fresh_pipeline()
        pipe.ingest_stream(RawRecord("drive-test", 0, meas_payload()))
        [row] = wh.scan("beam-management")
        again, wh2 = fresh_pipeline()  # a stored hash passes through
        again.ingest_stream(RawRecord("drive-test", 0, stored_payload(row)))
        assert wh2.scan("beam-management") == [row]

    def test_golden_canonical_record(self):
        pipe, wh = fresh_pipeline()
        pipe.ingest_stream(RawRecord("drive-test", 0, meas_payload()))
        assert wh.scan("beam-management") == [
            (0.0, hash_user_id("alice", b"test-key"), "c1", 3, "SSB", -80.5,
             12.0, 55.0, 10.0, 20.0, "drive-test")]


class TestLoad:
    def test_partitions_for_two_hours(self):
        pipe, wh = fresh_pipeline()
        for i, t in enumerate((100.0, 3700.0)):
            pipe.ingest_stream(RawRecord("drive-test", i,
                                         meas_payload(timestamp_s=t)))
        assert wh.migrate_tiers(3 * 24 * 3600.0) == [
            ("beam-management", 0), ("beam-management", 1)]

    def test_empty_load(self):
        pipe, wh = fresh_pipeline()
        assert pipe.ingest_rows(parse_header(MEAS_COLS), []) == (0, [])
        assert wh.load({}) == []
        assert wh.row_count("beam-management") == 0

    def test_kpi_routes_to_three_subjects(self):
        pipe, wh = fresh_pipeline()
        pipe.ingest_stream(RawRecord("network-management", 0, kpi_payload()))
        assert wh.scan("throughput") == [
            (0.0, "c1", 3600.0, 120.0, 0.4, 7, "network-management")]
        assert wh.scan("interference") == [
            (0.0, "c1", 0.1, 7, "network-management")]
        assert wh.scan("energy") == [
            (0.0, "c1", 3600.0, 0.4, 800.0, 800.0, "network-management")]
        assert wh.row_count("beam-management") == 0

    def test_row_count_recount(self):
        pipe, wh = fresh_pipeline()
        rows = [tuple(meas_payload(timestamp_s=float(i)).values())
                for i in range(25)]
        before = wh.row_count("beam-management")
        pipe.ingest_rows(parse_header(MEAS_COLS), enumerate(rows, start=2))
        assert wh.row_count("beam-management") == before + 25


class TestBatchFiles:
    def test_empty_file_valid_header(self, tmp_path):
        pipe, _ = fresh_pipeline()
        f = tmp_path / "m.csv"
        f.write_text(",".join(("source_tag", "seq_no") +
                              tuple(meas_payload())) + "\n")
        assert pipe.ingest_batch(f) == (0, [])

    def test_missing_header(self, tmp_path):
        pipe, _ = fresh_pipeline()
        f = tmp_path / "m.csv"
        f.write_text("")
        with pytest.raises(FileRejected):
            pipe.ingest_batch(f)

    def test_header_mismatch_rejects_file(self, tmp_path):
        pipe, _ = fresh_pipeline()
        f = tmp_path / "m.csv"
        f.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FileRejected):
            pipe.ingest_batch(f)

    def test_mixed_valid_and_malformed_lines(self, tmp_path):
        pipe, _ = fresh_pipeline()
        cols = tuple(meas_payload())
        header = ",".join(("source_tag", "seq_no") + cols)
        good = ",".join(("drive-test", "{}") + tuple(meas_payload().values()))
        lines = [header, good.format(0), "short,line", good.format(1),
                 "another,bad,line,entirely", good.format(2)]
        f = tmp_path / "m.csv"
        f.write_text("\n".join(lines) + "\n")
        accepted, rejects = pipe.ingest_batch(f)
        assert accepted == 3
        assert [r.line_no for r in rejects] == [3, 5]

    def test_txt_and_csv_equivalent(self, tmp_path):
        cols = tuple(meas_payload())
        vals = tuple(meas_payload().values())
        csv_f = tmp_path / "m.csv"
        csv_f.write_text(",".join(cols) + "\n" + ",".join(vals) + "\n")
        txt_f = tmp_path / "m.txt"
        txt_f.write_text("\t".join(cols) + "\n" + "\t".join(vals) + "\n")
        pipe1, wh1 = fresh_pipeline()
        pipe1.ingest_batch(csv_f)
        pipe1.quiesce()
        pipe2, wh2 = fresh_pipeline()
        pipe2.ingest_batch(txt_f)
        pipe2.quiesce()
        assert wh1.scan("beam-management") == wh2.scan("beam-management")

    def test_simulator_emitted_csvs_roundtrip(self, tmp_path):
        sc = make_scenario()
        m, k = step(sc, 3600.0, 0.0)
        emit_window_csvs(tmp_path, m, k)
        wh = Warehouse()
        create_bundled_subjects(wh)
        pipe = AcquisitionPipeline(wh, {"c1"})
        n = watch_directory(tmp_path, pipe)
        assert n == 2
        pipe.quiesce()
        assert wh.row_count("beam-management") == len(m)
        assert wh.row_count("throughput") == len(k)


class TestQuotedCsv:
    def test_quoted_comma_kept_in_one_field(self, tmp_path):
        pipe, wh = fresh_pipeline()
        f = tmp_path / "m.csv"
        with open(f, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(tuple(meas_payload()))
            w.writerow(tuple(meas_payload(user_id="a,b").values()))
        assert pipe.ingest_batch(f) == (1, [])
        pipe.quiesce()
        assert [r[1] for r in wh.scan("beam-management")] == [
            hash_user_id("a,b", b"test-key")]

    def test_line_numbers_of_mixed_file(self, tmp_path):
        pipe, _ = fresh_pipeline()
        cols = ENVELOPE + tuple(meas_payload())
        good = ("drive-test", "{}") + tuple(meas_payload().values())
        quoted = ("drive-test", "7") + tuple(
            meas_payload(user_id="x,y").values())
        f = tmp_path / "m.csv"
        f.write_text("\n".join([
            ",".join(cols),                                  # line 1
            ",".join(good).format(0),                        # 2
            "",                                              # 3 blank
            "drive-test,1,short",                            # 4 bad-line
            ",".join(good).format("one"),                    # 5 bad-seq
            ",".join(f'"{c}"' if "," in c else c for c in quoted),  # 6
            'drive-test,9,"two\nlines"',                     # 7-8 bad-line
            ",".join(good).format(8),                        # 9
            "drive-test,10",                                 # 10 bad-line
        ]) + "\n")
        accepted, rejects = pipe.ingest_batch(f)
        assert accepted == 3
        assert [(r.line_no, r.code, r.field) for r in rejects] == [
            (4, RejectCode.UNPARSABLE_VALUE, None),
            (5, RejectCode.UNPARSABLE_VALUE, "seq_no"),
            (7, RejectCode.UNPARSABLE_VALUE, None),
            (10, RejectCode.UNPARSABLE_VALUE, None)]

    def test_unclosed_quote_is_one_bad_line(self, tmp_path):
        # past the csv field limit the open quote raises inside the reader
        good = ",".join(meas_payload().values())
        for n_after in (3, 4000):
            pipe, _ = fresh_pipeline()
            f = tmp_path / "m.csv"
            f.write_text("\n".join([",".join(meas_payload()), good,
                                    '"unclosed' + good] + [good] * n_after))
            accepted, rejects = pipe.ingest_batch(f)
            assert (accepted, [r.line_no for r in rejects]) == (1, [3])


# -- ingest equivalence: files, socket and in-memory rows share one parser --

# (column to corrupt, bad value) per clean-stage reject kind
CLEAN_FAULTS = {
    "MissingField": {"m": ("rate_mbps", ""), "k": ("power_w", "")},
    "OutOfRange": {"m": ("rsrp_dbm", "-400.0"), "k": ("throughput_mbps", "-5.0")},
    "InconsistentIds": {"m": ("cell_id", "ghost"), "k": ("cell_id", "ghost")},
    "UnparsableValue": {"m": ("sinr_db", "loud"), "k": ("rbur", "loud")},
}
ROW_KINDS = ("ok", "resend", "short", "bad-seq") + tuple(CLEAN_FAULTS)


def corpus_rows(kind_of_batch, kinds, enveloped, users):
    """Text rows (header first) of one batch with the given row kinds."""
    cols = MEAS_COLS if kind_of_batch == "m" else KPI_COLS
    source = "drive-test" if kind_of_batch == "m" else "network-management"
    rows = [list(ENVELOPE + cols) if enveloped else list(cols)]
    sent = []
    for i, kind in enumerate(kinds):
        if kind_of_batch == "m":
            payload = meas_payload(timestamp_s=float(i), user_id=users[i],
                                   cell_id=("c1", "c2")[i % 2],
                                   rsrp_dbm=-60.0 - i)
        else:
            payload = kpi_payload(window_start_s=3600.0 * i,
                                  num_users=i, rbur=i / 100)
        if kind in CLEAN_FAULTS:
            col, bad = CLEAN_FAULTS[kind][kind_of_batch]
            payload[col] = bad
        cells = list(payload.values())
        if enveloped:
            cells = [source, "x" if kind == "bad-seq" else str(i)] + cells
        if kind == "resend" and sent:
            cells = sent[i % len(sent)]
        elif kind == "short":
            cells = cells[:-1]
        else:
            sent.append(cells)
        rows.append(cells)
    return rows


def write_rows(path, rows, delimiter):
    with open(path, "w", newline="") as f:
        csv.writer(f, delimiter=delimiter).writerows(rows)


def outcome(pipe, wh, line_rejects):
    """Everything an ingest path decides, in comparable form."""
    return (dict(pipe.counters),
            [(r.source_tag, r.seq_no, reason.code)
             for r, reason in pipe.rejects],
            [(r.line_no, r.code, r.field) for r in line_rejects],
            {subject: wh.scan(subject) for subject in wh.list_subjects()})


def ingest_files(tmp_path, batches, suffix, delimiter):
    pipe, wh = fresh_pipeline()
    line_rejects = []
    for name, rows in batches:
        path = tmp_path / f"{name}{suffix}"
        write_rows(path, rows, delimiter)
        line_rejects += pipe.ingest_batch(path)[1]
    pipe.quiesce()
    return outcome(pipe, wh, line_rejects)


def ingest_in_memory(batches):
    pipe, wh = fresh_pipeline()
    line_rejects = []
    for _, rows in batches:
        line_rejects += pipe.ingest_rows(parse_header(rows[0]),
                                         enumerate(rows[1:], start=2))[1]
    pipe.quiesce()
    return outcome(pipe, wh, line_rejects)


class TestIngestEquivalence:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(meas_kinds=st.lists(st.sampled_from(ROW_KINDS), max_size=25),
           kpi_kinds=st.lists(st.sampled_from(ROW_KINDS), max_size=10),
           enveloped=st.tuples(st.booleans(), st.booleans()),
           users=st.lists(st.text(alphabet='ab ,;"\'', min_size=1,
                                  max_size=4), min_size=25, max_size=25))
    def test_csv_txt_and_memory_agree(self, tmp_path, meas_kinds, kpi_kinds,
                                      enveloped, users):
        batches = [("m", corpus_rows("m", meas_kinds, enveloped[0], users)),
                   ("k", corpus_rows("k", kpi_kinds, enveloped[1], users))]
        from_csv = ingest_files(tmp_path, batches, ".csv", ",")
        assert ingest_files(tmp_path, batches, ".txt", "\t") == from_csv
        assert ingest_in_memory(batches) == from_csv
        counters = from_csv[0]
        assert counters["ingested"] == counters["kept"] + counters["rejected"]

    def test_socket_matches_batch(self, tmp_path):
        kinds = list(ROW_KINDS) * 3
        users = ["a,b", 'say "hi"', "plain", " padded "] * 10
        rows = corpus_rows("m", kinds, True, users)
        batch = ingest_files(tmp_path, [("m", rows)], ".csv", ",")
        pipe, wh = fresh_pipeline()
        acks = send_over_tcp(pipe, csv_text(rows))
        counters, rejects, line_rejects, scans = batch
        assert outcome(pipe, wh, []) == (counters, rejects, [], scans)
        assert acks.count("rejected bad-line") == kinds.count("short")
        assert acks.count("rejected bad-seq") == kinds.count("bad-seq")
        assert len(line_rejects) == kinds.count("short") + kinds.count("bad-seq")
        assert acks.count("duplicate") == counters["duplicates"] > 0
        assert len(acks) == len(kinds)


# -- one batch equals batches of one ---------------------------------------

DAY_S = 24 * 3600.0
# event times: two hours that go cold, one that outlives retention from the
# first, and a far-future pair whose second row recovers the clock
BATCH_TIMES = (0.0, 600.0, 2 * 3600.0, 5 * 3600.0, 9 * DAY_S, 40 * DAY_S,
               40 * DAY_S + 60.0)
BATCH_FAULTS = {**CLEAN_FAULTS,
                "NonFinite": {"m": ("pos_x_m", "nan"), "k": ("rbur", "inf")},
                "Huge": {"m": ("beam_id", "1e30"), "k": ("num_users", "1e19")}}
BATCH_ROW_KINDS = ("ok",) * 5 + ("resend", "short", "bad-seq") + tuple(
    BATCH_FAULTS)


@st.composite
def ingest_scripts(draw):
    """A list of steps: ("rows", text rows with the header first) or
    ("migrate",), with each row's kind and event time drawn."""
    steps, seq, sent = [], {"m": 0, "k": 0}, {"m": [], "k": []}
    for _ in range(draw(st.integers(1, 6))):
        kind, enveloped = draw(st.sampled_from("mk")), draw(st.booleans())
        cols = MEAS_COLS if kind == "m" else KPI_COLS
        source = "drive-test" if kind == "m" else "network-management"
        rows = [list(ENVELOPE + cols) if enveloped else list(cols)]
        for row_kind, t in draw(st.lists(st.tuples(
                st.sampled_from(BATCH_ROW_KINDS),
                st.sampled_from(BATCH_TIMES)), max_size=12)):
            if row_kind == "resend" and sent[kind] and enveloped:
                rows.append(draw(st.sampled_from(sent[kind])))
                continue
            payload = (meas_payload(timestamp_s=t, user_id=f"u{seq[kind]}",
                                    cell_id=("c1", "c2")[seq[kind] % 2])
                       if kind == "m" else kpi_payload(window_start_s=t))
            if row_kind in BATCH_FAULTS:
                col, bad = BATCH_FAULTS[row_kind][kind]
                payload[col] = bad
            cells = list(payload.values())
            if enveloped:
                cells = [source, "x" if row_kind == "bad-seq"
                         else str(seq[kind])] + cells
                sent[kind].append(cells)
            seq[kind] += 1
            rows.append(cells[:-1] if row_kind == "short" else cells)
        steps.append(("rows", rows))
        if draw(st.booleans()):
            steps.append(("migrate",))
    return steps


def run_script(steps, one_at_a_time):
    """Everything the pipeline and warehouse decide over a script."""
    wh = Warehouse(hot_window_s=0.0)
    create_bundled_subjects(wh)
    pipe = AcquisitionPipeline(wh, KNOWN_CELLS, hash_key=b"test-key")
    line_rejects = []
    for step in steps:
        if step[0] == "migrate":  # every hour up to the clock's goes cold
            wh.migrate_tiers(wh.clock_s + 3600.0)
            continue
        header, rows = parse_header(step[1][0]), step[1][1:]
        batches = ([[row] for row in enumerate(rows, start=2)]
                   if one_at_a_time else [enumerate(rows, start=2)])
        for batch in batches:
            line_rejects += pipe.ingest_rows(header, batch)[1]
    return (dict(pipe.counters),
            [(r.source_tag, r.seq_no, reason.code, reason.field, reason.raw)
             for r, reason in pipe.rejects],
            [(r.line_no, r.code, r.field, r.raw) for r in line_rejects],
            {subject: wh.scan(subject) for subject in wh.list_subjects()},
            wh.clock_s)


class TestBatchEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(steps=ingest_scripts())
    def test_one_batch_equals_batches_of_one(self, steps):
        assert run_script(steps, False) == run_script(steps, True)

    def test_refusals_in_one_batch_use_the_running_clock(self):
        rows = [list(ENVELOPE + MEAS_COLS)] + [
            ["drive-test", str(i)] + list(meas_payload(timestamp_s=t).values())
            for i, t in enumerate((0.0, 9 * DAY_S, 600.0, 40 * DAY_S,
                                   40 * DAY_S + 60.0))]
        counters, rejects, _, scans, clock = run_script([("rows", rows)],
                                                        False)
        assert (counters["kept"], counters["rejected"]) == (3, 2)
        assert [(seq, field) for _, seq, _, field, _ in rejects] == [
            (2, "t_s"), (3, "t_s")]  # too late, then too far ahead
        assert [r[0] for r in scans["beam-management"]] == [
            0.0, 9 * DAY_S, 40 * DAY_S + 60.0]
        assert clock == 40 * DAY_S + 60.0

    def test_unknown_source_raises_after_the_rows_before_it(self, tmp_path):
        rows = [ENVELOPE + MEAS_COLS] + [
            ("drive-test", str(i)) + tuple(meas_payload(
                timestamp_s=float(i), rsrp_dbm=-300 if i == 1 else -80
            ).values()) for i in range(6)]
        rows[4] = ("mystery",) + rows[4][1:]  # the 4th row
        path = tmp_path / "m.csv"
        write_rows(path, rows, ",")
        pipe, wh = fresh_pipeline()
        with pytest.raises(UnknownSource, match="mystery"):
            pipe.ingest_batch(path)
        c = pipe.counters
        assert (c["ingested"], c["kept"], c["rejected"]) == (3, 2, 1)
        assert [r[0] for r in wh.scan("beam-management")] == [0.0, 2.0]
        # the rows after it were never read: they ingest afresh
        assert pipe.ingest_stream(RawRecord("drive-test", 5, dict(
            zip(MEAS_COLS, rows[6][2:])))) == "accepted"


# -- the column path against the frozen row path ----------------------------

WEEK_S = 7 * DAY_S  # the bundled subjects' retention
# event times on both sides of clock - retention and clock + 2 retention
# for the clocks these times leave, with far-future and resumed rows
ORACLE_TIMES = (0.0, 600.0, 7200.0, 5 * 3600.0, WEEK_S - 600.0, WEEK_S,
                WEEK_S + 600.0, 2 * WEEK_S, 2 * WEEK_S + 600.0,
                2 * WEEK_S + 601.0, 3 * WEEK_S, 40 * DAY_S, 40 * DAY_S + 60.0)
ORACLE_FAULTS = {
    **BATCH_FAULTS,
    "MissingFirst": {"m": ("timestamp_s", ""), "k": ("cell_id", "")},
    "Sinr": {"m": ("sinr_db", "40.5"), "k": ("throughput_mbps", "-0.5")},
    "Rate": {"m": ("rate_mbps", "-1e-9"), "k": ("window_start_s", "1e19")}}
# typed in-memory rows, as the loop's simulator rows, with typed faults
TYPED_FAULTS = {
    "MissingField": {"m": ("sinr_db", ""), "k": ("rbur", "")},
    "MissingFirst": {"m": ("user_id", ""), "k": ("window_len_s", "")},
    "OutOfRange": {"m": ("rsrp_dbm", -400.0), "k": ("throughput_mbps", -5.0)},
    "InconsistentIds": {"m": ("cell_id", "ghost"), "k": ("cell_id", "c9")},
    "UnparsableValue": {"m": ("pos_y_m", None), "k": ("power_w", "x")},
    "NonFinite": {"m": ("rate_mbps", float("inf")),
                  "k": ("collision_ratio", float("nan"))},
    "Huge": {"m": ("beam_id", 2.0 ** 63), "k": ("num_users", -2.0 ** 64)}}
KBPS_COLS = tuple("rate_kbps" if c == "rate_mbps" else c for c in MEAS_COLS)


def typed_payload(kind, t, user):
    if kind == "k":
        return {"cell_id": "c2", "window_start_s": t, "window_len_s": 3600.0,
                "throughput_mbps": 80.5, "rbur": 0.25, "num_users": 3,
                "power_w": 700.0, "collision_ratio": 0.125}
    return {"timestamp_s": t, "user_id": user, "cell_id": "c1", "beam_id": 2,
            "signal_type": "SSB", "rsrp_dbm": -90.25, "sinr_db": 7.5,
            "rate_mbps": 12.0, "pos_x_m": -3.5, "pos_y_m": 4.0}


@st.composite
def oracle_scripts(draw):
    """Steps: ("rows", header cells, rows, one at a time) with text or
    typed rows, or ("migrate", seconds past the clock)."""
    steps, seq, sent = [], {}, {}
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 4)) == 0:
            steps.append(("migrate", draw(st.sampled_from(
                (0.0, 3600.0, WEEK_S, 2 * WEEK_S)))))
            continue
        schema = draw(st.sampled_from(("m", "kbps", "k")))
        kind = "k" if schema == "k" else "m"
        cols = {"m": MEAS_COLS, "kbps": KBPS_COLS, "k": KPI_COLS}[schema]
        typed = draw(st.booleans())
        enveloped = not typed and draw(st.booleans())
        source = draw(st.sampled_from(
            ("air-interface", "drive-test" if kind == "m"
             else "network-management")))
        faults = TYPED_FAULTS if typed else ORACLE_FAULTS
        row_kinds = ("ok",) * 4 + ("faults",) * 3 + (
            () if typed else ("resend", "short", "bad-seq"))
        rows = []
        for row_kind, t in draw(st.lists(st.tuples(
                st.sampled_from(row_kinds), st.sampled_from(ORACLE_TIMES)),
                max_size=14)):
            key = (schema, source)
            if row_kind == "resend":
                if enveloped and sent.get(key):
                    rows.append(draw(st.sampled_from(sent[key])))
                continue
            n = seq.get(key, 0)
            seq[key] = n + 1
            user = draw(st.sampled_from(
                ("u1", "a,b", "h0123456789abcdef", "h0123456789abcdef\n")))
            if typed:
                payload = typed_payload(kind, t, user)
            else:
                payload = (meas_payload(timestamp_s=t, user_id=user,
                                        cell_id=("c1", "c2")[n % 2])
                           if kind == "m" else kpi_payload(window_start_s=t))
            if schema == "kbps":
                payload["rate_kbps"] = payload.pop("rate_mbps")
            # one fault or several, so that each reject must name the
            # first rule and field a row breaks
            for fault in (draw(st.lists(st.sampled_from(tuple(faults)),
                                        min_size=1, max_size=3))
                          if row_kind == "faults" else ()):
                col, bad = faults[fault][kind]
                if schema == "kbps" and col == "rate_mbps":
                    col = "rate_kbps"
                payload[col] = bad
            cells = [payload[c] for c in cols]
            if enveloped:
                cells = [source, "x" if row_kind == "bad-seq" else str(n)] \
                    + cells
                sent.setdefault(key, []).append(cells)
            rows.append(tuple(cells) if typed else
                        cells[:-1] if row_kind == "short" else cells)
        steps.append(("rows", list(ENVELOPE + cols) if enveloped
                      else list(cols), rows, draw(st.booleans())))
    return steps


def run_oracle_script(steps, pipe, wh, migrate):
    """Everything an ingest path decides over a script."""
    line_rejects = []
    for step in steps:
        if step[0] == "migrate":
            migrate(wh.clock_s + step[1])
            continue
        _, cols, rows, one_at_a_time = step
        numbered = list(enumerate(rows, start=2))
        for batch in ([[row] for row in numbered] if one_at_a_time
                      else [numbered]):
            line_rejects += pipe.ingest_rows(parse_header(cols), batch)[1]
    return (dict(pipe.counters),
            [(r.source_tag, r.seq_no, reason.code, reason.field, reason.raw)
             for r, reason in pipe.rejects],
            [(r.line_no, r.code, r.field, r.raw) for r in line_rejects],
            {s.name: wh.scan(s.name) for s in bundled_subjects()},
            wh.clock_s)


class TestColumnPathMatchesRowPath:
    @settings(max_examples=200, deadline=None)
    @given(steps=oracle_scripts())
    def test_counters_rejects_rows_and_clock_match(self, steps):
        # hot_window_s=0: a migration freezes every hour before it, so
        # late rows go into cold partitions
        wh = Warehouse(hot_window_s=0.0)
        create_bundled_subjects(wh)
        pipe = AcquisitionPipeline(wh, KNOWN_CELLS, hash_key=b"test-key")
        naive_wh = NaiveWarehouse(bundled_subjects())
        naive = NaivePipeline(naive_wh, KNOWN_CELLS, hash_key=b"test-key")
        assert run_oracle_script(steps, pipe, wh, wh.migrate_tiers) == \
            run_oracle_script(steps, naive, naive_wh, naive_wh.expire)


class TestConservationAndDeidentification:
    def test_pipeline_conservation(self):
        pipe, _ = fresh_pipeline()
        n_ok, n_bad, n_dup = 200, 37, 15
        for i in range(n_ok):
            pipe.ingest_stream(RawRecord("drive-test", i, meas_payload(
                timestamp_s=float(i))))
        for i in range(n_bad):
            pipe.ingest_stream(RawRecord("drive-test", 1000 + i, meas_payload(
                rsrp_dbm=-999)))
        for i in range(n_dup):
            pipe.ingest_stream(RawRecord("drive-test", i, meas_payload()))
        pipe.quiesce()
        c = pipe.counters
        assert c["ingested"] == n_ok + n_bad
        assert c["duplicates"] == n_dup
        assert c["kept"] + c["rejected"] == c["ingested"]
        assert c["kept"] == n_ok and c["rejected"] == n_bad

    def test_no_raw_user_id_reaches_warehouse(self):
        pipe, wh = fresh_pipeline()
        for i in range(20):
            pipe.ingest_stream(RawRecord("drive-test", i, meas_payload(
                user_id=f"secret-user-{i}")))
        # a hash followed by a newline is not a hash; it is hashed
        pipe.ingest_stream(RawRecord("drive-test", 20, meas_payload(
            user_id="h0123456789abcdef\n")))
        pipe.quiesce()
        for subject in wh.list_subjects():
            for row in wh.scan(subject):
                assert not any("secret-user" in str(v) for v in row)
        assert {r[1] for r in wh.scan("beam-management")}.isdisjoint(
            {"h0123456789abcdef\n", "h0123456789abcdef"})


def write_1500_measurements(path):
    """1,500 measurements, every hundredth with an out-of-range RSRP."""
    rows = [",".join(meas_payload(timestamp_s=float(i), user_id=f"u{i}",
                                  rsrp_dbm=-10.0 if i % 100 == 0
                                  else -80.0).values())
            for i in range(1500)]
    path.write_text(",".join(meas_payload()) + "\n" + "\n".join(rows) + "\n")


class TestNoWorker:
    def test_batch_larger_than_buffer_completes(self, tmp_path):
        pipe, wh = fresh_pipeline()
        f = tmp_path / "m.csv"
        write_1500_measurements(f)
        result = []
        t = threading.Thread(target=lambda: result.append(pipe.ingest_batch(f)),
                             daemon=True)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive(), "ingest_batch blocked"
        pipe.quiesce()
        assert result[0] == (1500, [])
        c = pipe.counters
        assert c["ingested"] == 1500 == c["kept"] + c["rejected"]
        assert c["rejected"] == 15
        assert wh.row_count("beam-management") == 1485

    def test_batch_of_1500_records_starts_no_thread(self, tmp_path,
                                                    monkeypatch):
        pipe, wh = fresh_pipeline()
        f = tmp_path / "m.csv"
        write_1500_measurements(f)
        threads = threading.active_count()

        def no_thread(self):
            raise AssertionError(f"ingest started thread {self.name}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert pipe.ingest_batch(f) == (1500, [])
        assert threading.active_count() == threads
        c = pipe.counters
        assert c["ingested"] == 1500 == c["kept"] + c["rejected"]
        assert c["rejected"] == 15
        assert wh.row_count("beam-management") == 1485


class TestLateRows:
    # worker=True calls the legacy start()/stop(), which must change nothing
    @pytest.mark.parametrize("worker", [False, True])
    def test_late_row_kept_or_rejected_pipeline_goes_on(self, worker):
        wh = Warehouse(hot_window_s=3600.0)
        create_bundled_subjects(wh)
        pipe = AcquisitionPipeline(wh, KNOWN_CELLS, hash_key=b"test-key")
        if worker:
            pipe.start()

        def send(seq, t, user="u"):
            record = RawRecord("drive-test", seq, meas_payload(
                timestamp_s=t, user_id=user))
            assert pipe.ingest_stream(record) == "accepted"
            pipe.quiesce()

        send(0, 0.0)
        send(1, 3 * 3600.0)
        assert wh.migrate_tiers(4 * 3600.0) == [("beam-management", 0)]
        send(2, 10.0, "late")  # cold partition, inside retention
        send(3, 8 * 24 * 3600.0)
        send(4, 20.0)  # now outside the 7-day retention
        pipe.stop()
        c = pipe.counters
        assert (c["ingested"], c["kept"], c["rejected"]) == (5, 4, 1)
        [(record, reason)] = pipe.rejects
        assert record.seq_no == 4
        assert (reason.code, reason.field) == (RejectCode.OUT_OF_RANGE, "t_s")
        assert [(r[0], r[1]) for r in wh.scan("beam-management", 0, 3600)] \
            == [(0.0, hash_user_id("u", b"test-key")),
                (10.0, hash_user_id("late", b"test-key"))]


class TestFarFutureRow:
    def test_one_far_future_row_does_not_move_the_clock(self):
        pipe, wh = fresh_pipeline()

        def send(seq, t):
            record = RawRecord("drive-test", seq, meas_payload(timestamp_s=t))
            assert pipe.ingest_stream(record) == "accepted"

        send(0, 0.0)
        send(1, 1e15)
        for t in range(1, 6):
            send(1 + t, float(t))
        c = pipe.counters
        assert (c["ingested"], c["kept"], c["rejected"]) == (7, 6, 1)
        [(record, reason)] = pipe.rejects
        assert record.seq_no == 1
        assert (reason.code, reason.field) == (RejectCode.OUT_OF_RANGE, "t_s")
        assert wh.clock_s == 5.0
        assert wh.row_count("beam-management") == 6

    def test_far_future_first_row_still_sets_the_clock(self):
        # a known limit: with no row taken yet there is no clock to bound a
        # lead against, so in-time rows after it are refused as too late
        pipe, wh = fresh_pipeline()
        for seq, t in enumerate([1e15, 1.0, 2.0, 3.0, 4.0, 5.0]):
            record = RawRecord("drive-test", seq, meas_payload(timestamp_s=t))
            assert pipe.ingest_stream(record) == "accepted"
        c = pipe.counters
        assert (c["ingested"], c["kept"], c["rejected"]) == (6, 1, 5)
        assert wh.clock_s == 1e15


class TestWatchDirectory:
    def test_bad_header_file_among_good_ones(self, tmp_path):
        pipe, wh = fresh_pipeline()
        for name, user in (("a.csv", "u1"), ("c.csv", "u2")):
            write_rows(tmp_path / name, [MEAS_COLS, tuple(
                meas_payload(user_id=user).values())], ",")
        (tmp_path / "b.csv").write_text("a,b,c\n1,2,3\n")
        assert watch_directory(tmp_path, pipe) == 3
        pipe.quiesce()
        c = pipe.counters
        assert c["files_rejected"] == 1
        assert c["ingested"] == c["kept"] + c["rejected"] == 2
        assert wh.row_count("beam-management") == 2
        assert pipe.rejects == []  # record rejects only
        [(path, message)] = pipe.file_rejects
        assert path == str(tmp_path / "b.csv")
        assert "b.csv: unrecognized header" in message

    def test_non_utf8_file_rejected_later_files_read(self, tmp_path):
        pipe, wh = fresh_pipeline()
        for name, user in (("a.csv", "u1"), ("c.csv", "u2")):
            write_rows(tmp_path / name, [MEAS_COLS, tuple(
                meas_payload(user_id=user).values())], ",")
        (tmp_path / "b.csv").write_bytes(
            csv_text([MEAS_COLS]).encode() + b"\xff\xfe\x00\n")
        assert watch_directory(tmp_path, pipe) == 3
        pipe.quiesce()
        assert pipe.counters["files_rejected"] == 1
        assert wh.row_count("beam-management") == 2
        [(path, message)] = pipe.file_rejects
        assert path == str(tmp_path / "b.csv") and "not UTF-8" in message


class TestSocketBinding:
    def test_stream_over_tcp(self):
        pipe, wh = fresh_pipeline()
        server = StreamServer(("127.0.0.1", 0), pipe)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address
        try:
            cols = ("source_tag", "seq_no") + tuple(meas_payload())
            with socket.create_connection((host, port)) as s:
                f = s.makefile("rw")
                f.write(",".join(cols) + "\n")
                for i in range(5):
                    vals = ("drive-test", str(100 + i)) + \
                        tuple(meas_payload(timestamp_s=float(i)).values())
                    f.write(",".join(vals) + "\n")
                f.flush()
                s.shutdown(socket.SHUT_WR)
                acks = f.read().split()
            assert acks == ["accepted"] * 5
            assert wh.row_count("beam-management") == 5
        finally:
            server.shutdown()
            server.server_close()

    def test_concurrent_connections_with_resends(self):
        """Four producers at once send the same 1,100 records, every tenth
        one twice: each record is accepted once and meets one fate."""
        n, producers = 1100, 4
        pipe, wh = fresh_pipeline()
        header = ENVELOPE + tuple(meas_payload())

        def row(seq):
            return ("drive-test", str(seq)) + tuple(meas_payload(
                timestamp_s=float(seq), user_id=f"u{seq % 17}",
                rsrp_dbm=-300.0 if seq % 50 == 7 else -80.0).values())

        seqs = list(range(n))
        text = csv_text([header] + [row(q) for q in seqs + seqs[::10]])
        acks = [None] * producers
        server = StreamServer(("127.0.0.1", 0), pipe)
        threading.Thread(target=server.serve_forever, daemon=True).start()

        def produce(k):
            with socket.create_connection(server.server_address) as s:
                s.sendall(text.encode())
                s.shutdown(socket.SHUT_WR)
                acks[k] = s.makefile("r").read().splitlines()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: expose races
        try:
            threads = [threading.Thread(target=produce, args=(k,))
                       for k in range(producers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
            server.server_close()
        resends = producers * (n + n // 10) - n
        assert [len(a) for a in acks] == [n + n // 10] * producers
        assert all(set(a) <= {"accepted", "duplicate"} for a in acks)
        assert sum(a.count("accepted") for a in acks) == n
        bad = sum(1 for q in seqs if q % 50 == 7)
        c = pipe.counters
        assert c["duplicates"] == resends
        assert c["ingested"] == c["kept"] + c["rejected"] == n
        assert (c["kept"], c["rejected"]) == (n - bad, bad)
        assert len(pipe.rejects) == bad
        assert wh.row_count("beam-management") == n - bad

    def test_quoted_comma_over_tcp(self):
        pipe, wh = fresh_pipeline()
        acks = send_over_tcp(pipe, csv_text([
            ENVELOPE + tuple(meas_payload()),
            ("drive-test", "0") + tuple(meas_payload(user_id="a,b").values())]))
        assert acks == ["accepted"]
        pipe.quiesce()
        assert [r[1] for r in wh.scan("beam-management")] == [
            hash_user_id("a,b", b"test-key")]

    def test_unclosed_quote_over_tcp(self):
        pipe, _ = fresh_pipeline()
        rows = [ENVELOPE + tuple(meas_payload())] + [
            ("drive-test", str(i)) + tuple(meas_payload().values())
            for i in range(3000)]
        text = csv_text(rows[:3]) + '"open' + csv_text(rows[3:])
        assert send_over_tcp(pipe, text) == ["accepted", "accepted",
                                             "rejected bad-line"]

    def test_non_utf8_line_is_a_bad_line(self):
        pipe, wh = fresh_pipeline()
        row = ("drive-test", "{}") + tuple(meas_payload().values())
        text = (csv_text([ENVELOPE + tuple(meas_payload())])
                + csv_text([row]).format(0)).encode()
        text += b"drive-test,1,\xff\xfe\x00\n" + csv_text([row]).format(
            2).encode()
        assert send_over_tcp(pipe, text) == ["accepted", "rejected bad-line",
                                             "accepted"]
        pipe.quiesce()
        assert wh.row_count("beam-management") == 2

    def test_header_without_envelope_rejected(self):
        pipe, _ = fresh_pipeline()
        assert send_over_tcp(pipe, csv_text([tuple(meas_payload())])) == [
            "rejected bad-header"]
