import socket
import threading

import pytest

from ranopt.acquisition import (AcquisitionPipeline, RawRecord, RejectCode,
                                StreamServer, watch_directory)
from ranopt.errors import FileRejected, UnknownSource
from ranopt.simcore import emit_window_csvs, step
from ranopt.warehouse import QueryTask, Warehouse, create_bundled_subjects

from conftest import make_scenario

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


def fresh_pipeline():
    wh = Warehouse()
    create_bundled_subjects(wh)
    return AcquisitionPipeline(wh, KNOWN_CELLS, hash_key=b"test-key"), wh


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
            if i % 50 == 0:
                pipe.quiesce()  # keep the bounded buffer from filling
            pipe.ingest_stream(RawRecord("drive-test", i, meas_payload(
                timestamp_s=float(i), user_id=f"u{i % 13}")))
        pipe.quiesce()
        assert pipe.counters["ingested"] == 10_000
        assert pipe.counters["kept"] == 10_000
        assert wh.row_count("beam-management") == 10_000

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


class TestClean:
    def test_rsrp_out_of_range(self):
        pipe, _ = fresh_pipeline()
        reason = pipe.clean_one(RawRecord("drive-test", 0,
                                          meas_payload(rsrp_dbm=-300)))
        assert reason.code == RejectCode.OUT_OF_RANGE
        assert reason.field == "rsrp_dbm"

    def test_unknown_cell(self):
        pipe, _ = fresh_pipeline()
        reason = pipe.clean_one(RawRecord("drive-test", 0,
                                          meas_payload(cell_id="ghost")))
        assert reason.code == RejectCode.INCONSISTENT_IDS

    def test_missing_field(self):
        pipe, _ = fresh_pipeline()
        p = meas_payload()
        del p["sinr_db"]
        reason = pipe.clean_one(RawRecord("drive-test", 0, p))
        assert reason.code == RejectCode.MISSING_FIELD
        assert reason.field == "sinr_db"

    def test_unparsable_value(self):
        pipe, _ = fresh_pipeline()
        reason = pipe.clean_one(RawRecord("drive-test", 0,
                                          meas_payload(rate_mbps="fast")))
        assert reason.code == RejectCode.UNPARSABLE_VALUE

    def test_duplicate_within_batch(self):
        pipe, _ = fresh_pipeline()
        recs = [RawRecord("drive-test", 5, meas_payload()),
                RawRecord("drive-test", 5, meas_payload())]
        kept, rejected = pipe.clean(recs)
        assert len(kept) == 1 and len(rejected) == 1
        assert rejected[0][1].code == RejectCode.DUPLICATE_SEQ

    def test_clean_idempotent(self):
        pipe, _ = fresh_pipeline()
        recs = [RawRecord("drive-test", i, meas_payload(rsrp_dbm=v))
                for i, v in enumerate([-80, -300, -90])]
        kept, _ = pipe.clean(recs)
        kept2, rejected2 = pipe.clean(kept)
        assert kept2 == kept and rejected2 == []


class TestTransform:
    def test_kbps_unit_normalization(self):
        pipe, _ = fresh_pipeline()
        p = meas_payload()
        p["rate_kbps"] = p.pop("rate_mbps")
        p["rate_kbps"] = "55000.0"
        rec = pipe.transform(RawRecord("drive-test", 0, p))
        assert rec.fields["rate_mbps"] == pytest.approx(55.0)

    def test_hash_deterministic(self):
        pipe, _ = fresh_pipeline()
        r1 = pipe.transform(RawRecord("drive-test", 0, meas_payload()))
        r2 = pipe.transform(RawRecord("drive-test", 1, meas_payload()))
        assert r1.fields["user_hash"] == r2.fields["user_hash"]
        assert r1.fields["user_hash"] != "alice"

    def test_canonicalization_idempotent(self):
        pipe, _ = fresh_pipeline()
        rec = pipe.transform(RawRecord("drive-test", 0, meas_payload()))
        again = pipe.transform(pipe.canonical_payload_view(rec))
        assert again.fields == rec.fields

    def test_golden_canonical_record(self):
        pipe, _ = fresh_pipeline()
        rec = pipe.transform(RawRecord("drive-test", 0, meas_payload()))
        assert rec.kind == "measurement"
        assert list(rec.fields) == ["t_s", "user_hash", "cell_id", "beam_id",
                                    "signal_type", "rsrp_dbm", "sinr_db",
                                    "rate_mbps", "pos_x_m", "pos_y_m"]
        assert rec.fields["t_s"] == 0.0
        assert rec.fields["beam_id"] == 3
        assert rec.fields["rsrp_dbm"] == -80.5


class TestLoad:
    def test_partitions_for_two_hours(self):
        pipe, _ = fresh_pipeline()
        recs = [pipe.transform(RawRecord("drive-test", i,
                                         meas_payload(timestamp_s=t)))
                for i, t in enumerate((100.0, 3700.0))]
        parts = pipe.load(recs)
        assert parts == [("beam-management", 0), ("beam-management", 1)]

    def test_empty_load(self):
        pipe, wh = fresh_pipeline()
        assert pipe.load([]) == []
        assert wh.row_count("beam-management") == 0

    def test_kpi_routes_to_three_subjects(self):
        pipe, wh = fresh_pipeline()
        rec = pipe.transform(RawRecord("network-management", 0, kpi_payload()))
        parts = pipe.load([rec])
        assert {s for s, _ in parts} == {"throughput", "interference", "energy"}
        for subject in ("throughput", "interference", "energy"):
            assert wh.row_count(subject) == 1

    def test_row_count_recount(self):
        pipe, wh = fresh_pipeline()
        recs = [pipe.transform(RawRecord("drive-test", i, meas_payload(
            timestamp_s=float(i)))) for i in range(25)]
        before = wh.row_count("beam-management")
        pipe.load(recs)
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
        pipe.quiesce()
        for subject in wh.list_subjects():
            for row in wh.scan(subject):
                assert not any("secret-user" in str(v) for v in row)


class TestNoWorker:
    def test_batch_larger_than_buffer_completes(self, tmp_path):
        pipe, wh = fresh_pipeline()
        f = tmp_path / "m.csv"
        rows = [",".join(meas_payload(timestamp_s=float(i), user_id=f"u{i}",
                                      rsrp_dbm=-10.0 if i % 100 == 0
                                      else -80.0).values())
                for i in range(1500)]
        f.write_text(",".join(meas_payload()) + "\n" + "\n".join(rows) + "\n")
        result = []
        t = threading.Thread(target=lambda: result.append(pipe.ingest_batch(f)),
                             daemon=True)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive(), "ingest_batch blocked on a full buffer"
        pipe.quiesce()
        assert result[0] == (1500, [])
        c = pipe.counters
        assert c["ingested"] == 1500 == c["kept"] + c["rejected"]
        assert c["rejected"] == 15
        assert wh.row_count("beam-management") == 1485


class TestSocketBinding:
    def test_stream_over_tcp(self):
        pipe, wh = fresh_pipeline()
        pipe.start()
        server = StreamServer(("127.0.0.1", 0), pipe)
        server.serve_in_background()
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
            pipe.quiesce()
            assert wh.row_count("beam-management") == 5
        finally:
            server.shutdown()
            pipe.stop()
