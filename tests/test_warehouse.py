import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranopt.errors import AlreadyExists, SchemaError, SubjectNotFound
from ranopt.warehouse import (Column, QueryTask, SubjectSpec, Warehouse,
                              bundled_subjects, create_bundled_subjects)
from ranopt.warehouse.query import aggregate_values

from naive_oracle import NaiveWarehouse, run_aggregates


def kpi_spec(name="kpi"):
    return SubjectSpec(name, [Column("t_s", "float", "s"),
                              Column("cell_id", "str"),
                              Column("throughput_mbps", "float"),
                              Column("rbur", "float")])


def fresh(name="kpi"):
    wh = Warehouse()
    wh.create_subject(kpi_spec(name))
    return wh


def batch(records):
    """Records, each a tuple of (subject, row) pairs over the same
    subjects, as the columns Warehouse.load takes."""
    rows = {}
    for record in records:
        for subject, row in record:
            rows.setdefault(subject, []).append(row)
    return {subject: list(zip(*r)) for subject, r in rows.items()}


def put(wh, subject, rows):  # each row as a one-row record; none refused
    assert wh.load(batch(((subject, row),) for row in rows)) == []


class TestSubjects:
    def test_create_and_list(self):
        wh = fresh()
        assert wh.list_subjects() == ["kpi"]

    def test_duplicate_create(self):
        wh = fresh()
        with pytest.raises(AlreadyExists):
            wh.create_subject(kpi_spec())

    def test_bundled_subjects(self):
        wh = Warehouse()
        handles = create_bundled_subjects(wh)
        assert len(handles) == 4
        assert sorted(handles) == wh.list_subjects()

    def test_unknown_subject(self):
        wh = Warehouse()
        with pytest.raises(SubjectNotFound):
            wh.load(batch([(("nope", (0.0,)),)]))


class TestAppend:
    def test_append_zero_rows(self):
        wh = fresh()
        assert wh.load({}) == []
        assert wh.row_count("kpi") == 0

    def test_append_count_conservation(self):
        wh = fresh()
        put(wh, "kpi", [(float(i * 600), "c1", 10.0 * i, 0.1)
                        for i in range(20)])
        res = wh.query(QueryTask(subject="kpi", aggregates=[("count", "*")]))
        assert res.rows[0][0] == 20

    def test_bad_value_atomic(self):
        wh = fresh()
        with pytest.raises(SchemaError, match="throughput_mbps"):
            put(wh, "kpi", [(0.0, "c1", 5.0, 0.1), (1.0, "c1", "oops", 0.1)])
        assert wh.row_count("kpi") == 0

    def test_out_of_retention_rejected(self):
        wh = fresh()
        put(wh, "kpi", [(30 * 24 * 3600.0, "c1", 5.0, 0.1)])
        assert wh.load(batch([(("kpi", (0.0, "c1", 5.0, 0.1)),)])) == [0]
        assert wh.row_count("kpi") == 1

    def test_row_far_ahead_of_clock_rejected(self):
        week_s = 7 * 24 * 3600.0  # the default retention
        wh = fresh()
        put(wh, "kpi", [(1.7e9, "c1", 5.0, 0.1)])  # the first row sets
        assert wh.clock_s == 1.7e9                # the clock, any epoch
        put(wh, "kpi", [(1.7e9 + 2 * week_s, "c1", 5.0, 0.1)])
        assert wh.load(batch([
            (("kpi", (1.7e9 + 4 * week_s + 1.0, "c1", 5.0, 0.1)),),
            (("kpi", (1.7e9 + 2 * week_s + 1.0, "c1", 5.0, 0.1)),)])) == [0]
        assert wh.clock_s == 1.7e9 + 2 * week_s + 1.0
        assert wh.row_count("kpi") == 3
        assert wh.load(batch([(("kpi", (1e15, "c1", 5.0, 0.1)),)])) == [0]
        assert wh.row_count("kpi") == 3  # refused again after a row taken

    def test_data_resuming_after_a_long_gap_taken_from_its_second_row(self):
        week_s = 7 * 24 * 3600.0
        wh = fresh()
        put(wh, "kpi", [(0.0, "c1", 5.0, 0.1)])
        assert wh.load(batch([(("kpi", (3 * week_s, "c1", 5.0, 0.1)),)])
                       ) == [0]
        with pytest.raises(SchemaError):  # takes no row, changes nothing
            put(wh, "kpi", [(3 * week_s, "c1", "oops", 0.1)])
        put(wh, "kpi", [(3 * week_s + 60.0, "c1", 5.0, 0.1)])
        assert wh.clock_s == 3 * week_s + 60.0
        put(wh, "kpi", [(3 * week_s + 120.0, "c1", 5.0, 0.1)])
        assert wh.row_count("kpi") == 3

    def test_int_outside_64_bits_rejected(self):
        wh = Warehouse()
        wh.create_subject(SubjectSpec("n", [Column("t_s", "float"),
                                            Column("n", "int")]))
        put(wh, "n", [(0.0, 2**63 - 1), (1.0, -2**63)])
        with pytest.raises(SchemaError, match="'n'"):
            put(wh, "n", [(2.0, 5), (3.0, 2**63)])
        assert wh.scan("n") == [(0.0, 2**63 - 1), (1.0, -2**63)]

    def test_rows_take_the_schema_types(self):
        wh = Warehouse()
        wh.create_subject(SubjectSpec("n", [Column("t_s", "float"),
                                            Column("n", "int"),
                                            Column("s", "str")]))
        # np.float64 is a float and True an int, but neither is stored
        put(wh, "n", [(0.0, 1, "a"), (np.float64(1.0), True, "b"),
                      (2, np.int64(7), 5)])
        rows = wh.scan("n")
        assert rows == [(0.0, 1, "a"), (1.0, 1, "b"), (2.0, 7, "5")]
        assert {tuple(map(type, r)) for r in rows} == {(float, int, str)}

    def test_late_row_joins_cold_partition(self):
        wh = Warehouse(hot_window_s=3600.0)
        wh.create_subject(kpi_spec())
        put(wh, "kpi", [(0.0, "c1", 5.0, 0.1), (3 * 3600.0, "c2", 6.0, 0.2)])
        assert wh.migrate_tiers(4 * 3600.0) == [("kpi", 0)]
        put(wh, "kpi", [(10.0, "c3", 7.0, 0.3), (20.0, "c1", 8.0, 0.4)])
        assert wh.scan("kpi", 0.0, 3600.0) == [
            (0.0, "c1", 5.0, 0.1), (10.0, "c3", 7.0, 0.3),
            (20.0, "c1", 8.0, 0.4)]
        assert wh.row_count("kpi") == 4
        res = wh.query(QueryTask(subject="kpi", t1=3600.0, group_by=["cell_id"],
                                 aggregates=[("sum", "throughput_mbps")]))
        assert res.rows == [("c1", 13.0), ("c3", 7.0)]


class TestQuery:
    def test_mean(self):
        wh = fresh()
        put(wh, "kpi", [(0.0, "c1", 10.0, 0.1), (1.0, "c1", 20.0, 0.1),
                          (2.0, "c1", 30.0, 0.1)])
        res = wh.query(QueryTask(subject="kpi",
                                 aggregates=[("mean", "throughput_mbps")]))
        assert res.rows == [(20.0,)]

    def test_group_by_hand_computed(self):
        wh = fresh()
        put(wh, "kpi", [(0.0, "c1", 10.0, 0.1), (1.0, "c2", 99.0, 0.5),
                          (2.0, "c1", 30.0, 0.3)])
        res = wh.query(QueryTask(subject="kpi", group_by=["cell_id"],
                                 aggregates=[("count", "*"),
                                             ("sum", "throughput_mbps"),
                                             ("max", "rbur")]))
        assert res.header == ["cell_id", "count(*)", "sum(throughput_mbps)",
                              "max(rbur)"]
        assert res.rows == [("c1", 2, 40.0, 0.3), ("c2", 1, 99.0, 0.5)]

    def test_numeric_group_keys_sort_by_value(self):
        wh = Warehouse()
        wh.create_subject(SubjectSpec("g", [Column("t_s", "float", "s"),
                                            Column("n", "int"),
                                            Column("x", "float")]))
        put(wh, "g", [(0.0, n, x) for n, x in
                        ((10, -1.0), (9, -2.0), (10, -10.0), (100, -1.0))])
        by_n = wh.query(QueryTask(subject="g", group_by=["n"],
                                  aggregates=[("count", "*")]))
        assert by_n.rows == [(9, 1), (10, 2), (100, 1)]
        by_x = wh.query(QueryTask(subject="g", group_by=["x"],
                                  aggregates=[("count", "*")]))
        assert by_x.rows == [(-10.0, 1), (-2.0, 1), (-1.0, 2)]

    def test_filters_and_time_range(self):
        wh = fresh()
        put(wh, "kpi", [(t, "c1", float(t), 0.1) for t in
                          (0.0, 1800.0, 3600.0, 7200.0)])
        res = wh.query(QueryTask(subject="kpi", t0=0.0, t1=3600.0,
                                 filters=[("throughput_mbps", ">", 0.0)],
                                 aggregates=[("count", "*")]))
        assert res.rows == [(1,)]

    def test_unknown_column(self):
        wh = fresh()
        with pytest.raises(SchemaError):
            wh.query(QueryTask(subject="kpi", aggregates=[("mean", "bogus")]))
        with pytest.raises(SchemaError, match="'bogus'"):
            wh.read("kpi", ["t_s", "bogus"])

    def test_filter_value_must_fit_its_column(self):
        wh = fresh()  # empty: the check reads no row
        for bad in (("rbur", "<", "x"), ("rbur", "<", None),
                    ("rbur", "==", True), ("rbur", "<", [1]),
                    ("cell_id", "<", 3), ("cell_id", "==", None)):
            with pytest.raises(SchemaError, match=bad[0]):
                wh.query(QueryTask(subject="kpi", filters=[bad],
                                   aggregates=[("count", "*")]))
        put(wh, "kpi", [(0.0, "c1", 5.0, 0.25)])
        for number in (1, 0.5, np.float64(0.5), np.float32(0.5),
                       np.int64(1)):
            task = QueryTask(subject="kpi", filters=[
                ("rbur", "<", number), ("cell_id", "==", "c1")],
                aggregates=[("count", "*")])
            assert wh.query(task).rows == [(1,)]

    def test_time_bounds_are_numbers_or_none(self):
        for bad in ("abc", [1], True, {}):
            with pytest.raises(SchemaError, match="t0"):
                QueryTask(subject="kpi", t0=bad)
            with pytest.raises(SchemaError, match="t1"):
                QueryTask(subject="kpi", t1=bad)
        for bound in (None, 0, 1.5, np.float64(1.5), np.int64(2)):
            QueryTask(subject="kpi", t0=bound, t1=bound)

    def test_time_bound_is_not_nan(self):
        for nan in (float("nan"), np.float64("nan")):
            with pytest.raises(SchemaError, match="t0 is NaN"):
                QueryTask(subject="kpi", t0=nan)
            with pytest.raises(SchemaError, match="t1 is NaN"):
                QueryTask(subject="kpi", t1=nan)
        with pytest.raises(SchemaError, match="t0 is NaN"):
            QueryTask.from_json('{"subject": "kpi", "t0": NaN}')
        # an infinite bound is still a bound
        QueryTask(subject="kpi", t0=-float("inf"), t1=float("inf"))

    def test_only_count_takes_a_string_column_or_star(self):
        wh = fresh()
        put(wh, "kpi", [(0.0, "c1", 5.0, 0.1)])
        assert wh.query(QueryTask(subject="kpi", aggregates=[
            ("count", "cell_id")])).rows == [(1,)]
        with pytest.raises(SchemaError, match="numeric"):
            wh.query(QueryTask(subject="kpi", aggregates=[("max", "cell_id")]))
        with pytest.raises(SchemaError, match="count"):
            QueryTask(subject="kpi", aggregates=[("sum", "*")])

    def test_percentiles_against_numpy(self):
        wh = fresh()
        vals = list(np.random.default_rng(5).uniform(0, 100, 37))
        put(wh, "kpi", [(float(i), "c1", float(v), 0.1)
                          for i, v in enumerate(vals)])
        res = wh.query(QueryTask(subject="kpi",
                                 aggregates=[("p50", "throughput_mbps"),
                                             ("p95", "throughput_mbps")]))
        assert res.rows == [(float(np.percentile(vals, 50)),
                             float(np.percentile(vals, 95)))]

    @settings(max_examples=300, deadline=None)
    @given(values=st.one_of(
        st.lists(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
                 | st.floats() | st.integers(-2**60, 2**60),
                 min_size=1, max_size=60),
        # long groups of few distinct values, mostly zeros of both signs:
        # which zero lands at an interpolated position depends on how the
        # group is partitioned
        st.builds(lambda n, seed: np.random.default_rng(seed).choice(
            [0.0, -0.0, 0.0, -0.0, 1.0, -2.0, np.inf], n).tolist(),
            st.integers(1001, 1300), st.integers(0, 2**32 - 1))))
    def test_percentiles_equal_numpy_bit_for_bit(self, values):
        a = np.asarray(values, dtype=float)
        before = a.tobytes()
        for agg, q in (("p50", 50), ("p95", 95)):
            with np.errstate(invalid="ignore"):
                want = repr(float(np.percentile(a, q)))
            assert repr(aggregate_values(agg, values)) == want
            assert repr(aggregate_values(agg, a)) == want
        assert a.tobytes() == before  # a column is read, never reordered

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats() | st.integers(-2**60, 2**60),
                           min_size=1, max_size=40))
    def test_reductions_equal_ndarray_methods(self, values):
        a = np.asarray(values, dtype=float)
        with np.errstate(all="ignore"):
            want = {"sum": a.sum(), "mean": a.mean(), "min": a.min(),
                    "max": a.max()}
            for agg, w in want.items():
                assert repr(aggregate_values(agg, values)) == repr(float(w))
                assert repr(aggregate_values(agg, a)) == repr(float(w))

    def test_task_json_roundtrip(self):
        task = QueryTask(subject="kpi", t0=0.0, t1=10.0,
                         filters=[("cell_id", "==", "c1")],
                         group_by=["cell_id"],
                         aggregates=[("mean", "rbur")])
        assert QueryTask.from_json(task.to_json()) == task


class TestLoad:
    @staticmethod
    def two_subjects():
        wh = fresh("a")
        wh.create_subject(SubjectSpec("b", [Column("t_s", "float"),
                                            Column("n", "int")],
                                      retention_hours=1))
        return wh, lambda t: (("a", (t, "c1", 1.0, 0.1)), ("b", (t, 1)))

    def test_record_refused_as_a_whole_against_the_running_clock(self):
        wh, record = self.two_subjects()
        # t=10 s is within a's retention of the clock the t=7200 s record
        # left, but not within b's one hour
        assert wh.load(batch([record(0.0), record(7200.0), record(10.0),
                              record(7300.0)])) == [2]
        for subject in ("a", "b"):
            assert [r[0] for r in wh.scan(subject)] == [0.0, 7200.0, 7300.0]
        assert wh.clock_s == 7300.0

    def test_row_that_does_not_fit_loads_nothing(self):
        wh, record = self.two_subjects()
        with pytest.raises(SchemaError, match="throughput_mbps"):
            wh.load(batch([record(0.0), (("a", (1.0, "c1", "oops", 0.1)),
                                         ("b", (1.0, 1)))]))
        assert wh.row_count("a") == wh.row_count("b") == 0
        assert wh.clock_s == 0.0


class TestLoadMatchesRowLoad:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_batches_load_as_records_one_at_a_time(self, data):
        # two subjects of different retention in one batch, times on both
        # sides of each one's retention and lead bounds, and migrations that
        # send late rows into cold partitions
        specs = [SubjectSpec("a", [Column("t_s", "float"),
                                   Column("v", "int")], retention_hours=3),
                 SubjectSpec("b", [Column("c", "str"), Column("t_s", "float")],
                             retention_hours=1)]
        wh = Warehouse(hot_window_s=0.0)
        for spec in specs:
            wh.create_subject(spec)
        naive = NaiveWarehouse(specs)
        hour = 3600.0
        times = st.sampled_from((0.0, 60.0, hour, 2 * hour, 2 * hour + 60.0,
                                 3 * hour, 4 * hour, 6 * hour, 6 * hour + 1.0,
                                 7 * hour, 12 * hour, 13 * hour, 40 * hour))
        for step in range(data.draw(st.integers(1, 6))):
            if data.draw(st.booleans()):
                now = wh.clock_s + data.draw(st.sampled_from((0.0, hour)))
                wh.migrate_tiers(now)
                naive.expire(now)
            records = [((("a", (t, step)), ("b", (f"c{step}", u)))
                        if both else (("a", (t, step)),))
                       for t, u, both in data.draw(st.lists(st.tuples(
                           times, times, st.booleans()), max_size=8))]
            both = data.draw(st.booleans())
            records = [r for r in records if (len(r) == 2) == both]
            assert wh.load(batch(records)) == naive.load(records)
            assert wh.clock_s == naive.clock_s
        for spec in specs:
            assert wh.scan(spec.name) == naive.scan(spec.name)


class TestTiering:
    def test_fresh_partitions_stay(self):
        wh = fresh()
        put(wh, "kpi", [(0.0, "c1", 5.0, 0.1)])
        assert wh.migrate_tiers(3600.0) == []

    def test_stale_partition_moves_rows_preserved(self):
        wh = fresh()
        put(wh, "kpi", [(0.0, "c1", 5.0, 0.1), (10.0, "c1", 6.0, 0.2)])
        put(wh, "kpi", [(48 * 3600.0, "c1", 7.0, 0.3)])
        moved = wh.migrate_tiers(48 * 3600.0)
        assert moved == [("kpi", 0)]
        assert wh.row_count("kpi") == 3

    def test_query_equality_across_migration(self):
        wh = fresh()
        rng = np.random.default_rng(9)
        rows = [(float(i * 60), "c%d" % (i % 3), float(rng.uniform(0, 50)),
                 float(rng.uniform(0, 1))) for i in range(200)]
        put(wh, "kpi", rows)
        task = QueryTask(subject="kpi", group_by=["cell_id"],
                         aggregates=[("count", "*"), ("mean", "throughput_mbps"),
                                     ("p95", "rbur")])
        before = wh.query(task).to_csv()
        moved = wh.migrate_tiers(4 * 24 * 3600.0)
        assert moved
        after = wh.query(task).to_csv()
        assert before == after

    def test_scan_keeps_types_and_order_across_migration(self):
        wh = Warehouse(hot_window_s=3600.0)
        wh.create_subject(SubjectSpec("m", [Column("t_s", "float"),
                                            Column("cell", "str"),
                                            Column("n", "int"),
                                            Column("x", "float")]))
        rows = [(7300.0, "b", 3, -0.0), (10.0, "a", -1, 2.5),
                (3600.0, "b", 2**62, 1e300), (5.0, "", 0, -7.25),
                (7200.0, "é", 1, 0.1)]
        put(wh, "m", rows)
        ranges = [(None, None), (5.0, 7250.0), (6.0, None), (None, 3600.0)]
        before = [wh.scan("m", t0, t1) for t0, t1 in ranges]
        assert before[0] == [rows[1], rows[3], rows[2], rows[0], rows[4]]
        assert wh.migrate_tiers(5 * 3600.0) == [("m", 0), ("m", 1), ("m", 2)]
        after = [wh.scan("m", t0, t1) for t0, t1 in ranges]
        assert repr(after) == repr(before)
        assert [[tuple(map(type, r)) for r in part] for part in after] == \
            [[(float, str, int, float)] * len(part) for part in before]

    def test_expired_values_leave_the_string_dictionaries(self):
        wh = Warehouse(hot_window_s=3600.0)
        create_bundled_subjects(wh)
        put(wh, "beam-management", [
            (float(i), f"h{i:016x}", "c1", 0, "SSB", -80.0, 1.0, 1.0, 0.0,
             0.0, "drive-test") for i in range(3000)])
        assert wh.migrate_tiers(3 * 3600.0) == [("beam-management", 0)]
        wh.migrate_tiers(9 * 24 * 3600.0)
        assert wh.row_count("beam-management") == 0
        assert wh._get("beam-management").strings["user_hash"] == []

    def test_queries_equal_across_a_partial_expiry(self):
        wh = Warehouse(hot_window_s=4 * 3600.0)
        wh.create_subject(SubjectSpec("kpi", kpi_spec().columns,
                                      retention_hours=24))
        rows = [(h * 3600.0 + 60.0 * k, f"early{h}" if h < 12 and k
                 else f"c{(h + k) % 3}", float(h * k), k / 10)
                for h in range(48) for k in range(3)]
        put(wh, "kpi", rows)
        wh.migrate_tiers(24.5 * 3600.0)  # freezes hours 0-19, expires none
        tasks = [QueryTask(subject="kpi", t0=12 * 3600.0, t1=t1,
                           filters=filters, group_by=["cell_id"],
                           aggregates=[("count", "*"),
                                       ("sum", "throughput_mbps")])
                 for t1 in (20 * 3600.0, None)
                 for filters in ([], [("cell_id", "!=", "c1")])]
        before = [wh.query(task).to_csv() for task in tasks]
        scan = wh.scan("kpi", 12 * 3600.0)
        wh.migrate_tiers(36.5 * 3600.0)  # expires hours 0-11
        assert wh.counters("kpi")["expired"] == 36
        assert not any(s.startswith("early")
                       for s in wh._get("kpi").strings["cell_id"])
        assert [wh.query(task).to_csv() for task in tasks] == before
        assert wh.scan("kpi") == scan
        late = (24.5 * 3600.0, "late", 1.0, 0.5)  # into a re-coded block
        put(wh, "kpi", [late])
        assert wh.scan("kpi", 24 * 3600.0, 25 * 3600.0) == [
            r for r in scan if 24 * 3600.0 <= r[0] < 25 * 3600.0] + [late]

    def test_read_decodes_by_the_dictionaries_it_read_under(self,
                                                             monkeypatch):
        # an expiry that re-codes between reading the codes and decoding
        # them must not shift the values
        wh = Warehouse(hot_window_s=4 * 3600.0)
        wh.create_subject(SubjectSpec("kpi", kpi_spec().columns,
                                      retention_hours=24))
        rows = [(h * 3600.0, f"early{h}" if h < 12 else f"c{h % 3}",
                 float(h), 0.1) for h in range(48)]
        put(wh, "kpi", rows)
        wh.migrate_tiers(24.5 * 3600.0)
        columns = Warehouse._columns

        def then_expire(self, *args):
            out = columns(self, *args)
            self.migrate_tiers(36.5 * 3600.0)  # expires hours 0-11
            return out

        monkeypatch.setattr(Warehouse, "_columns", then_expire)
        got = wh.read("kpi", ["cell_id"], 12 * 3600.0)["cell_id"]
        assert wh._get("kpi").strings["cell_id"] == ["c0", "c1", "c2"]
        assert got.tolist() == [r[1] for r in rows[12:]]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_windowed_reads_match_a_naive_scan(self, data):
        # loads, tier migrations and expiries in any order, then windows
        # that start and end inside, between and outside the partitions
        retention_h = data.draw(st.integers(2, 12), label="retention_h")
        wh = Warehouse(hot_window_s=3600.0 * data.draw(st.integers(1, 6)))
        wh.create_subject(SubjectSpec("s", [Column("t_s", "float"),
                                            Column("v", "int")],
                                      retention_hours=retention_h))
        hour = st.floats(0.0, 48.0).map(lambda h: 3600.0 * h)
        kept = []  # the retained rows, in load order
        for _ in range(data.draw(st.integers(1, 6))):
            rows = [(t, len(kept) + i) for i, t in
                    enumerate(data.draw(st.lists(hour, max_size=25)))]
            refused = set(wh.load(batch((("s", r),) for r in rows)))
            kept += [r for i, r in enumerate(rows) if i not in refused]
            if data.draw(st.booleans()):
                now = data.draw(st.floats(0.0, 72.0)) * 3600.0
                wh.migrate_tiers(now)
                kept = [r for r in kept if now - (r[0] // 3600 + 1) * 3600.0
                        < retention_h * 3600.0]
        bound = st.one_of(st.none(), st.floats(-2.0, 74.0).map(
            lambda h: 3600.0 * h), st.integers(-2, 74).map(
            lambda h: 3600.0 * h))
        for _ in range(5):
            t0, t1 = data.draw(bound, label="t0"), data.draw(bound, label="t1")
            # scan order: by hour bucket, each bucket's rows in load order
            naive = sorted((r for r in kept
                            if (t0 is None or r[0] >= t0)
                            and (t1 is None or r[0] < t1)),
                           key=lambda r: r[0] // 3600)
            assert wh.scan("s", t0, t1) == naive
            assert wh.read("s", ["v"], t0, t1)["v"].tolist() == [
                v for _, v in naive]

    def test_retention_expiry(self):
        wh = fresh()
        put(wh, "kpi", [(0.0, "c1", 5.0, 0.1)])
        wh.migrate_tiers(8 * 24 * 3600.0)
        assert wh.row_count("kpi") == 0
        assert wh.counters("kpi") == {"appended": 1, "expired": 1, "retained": 0}


class TestOracleEquivalence:
    def _random_task(self, rng):
        filters = []
        if rng.random() < 0.6:
            filters.append(("rbur", rng.choice(["<", ">=", "<="]),
                            float(rng.uniform(0, 1))))
        if rng.random() < 0.3:
            filters.append(("cell_id", "==", "c%d" % rng.integers(0, 3)))
        group = ["cell_id"] if rng.random() < 0.5 else []
        aggs = [("count", "*")]
        for agg in ("sum", "mean", "min", "max", "p50", "p95"):
            if rng.random() < 0.4:
                aggs.append((agg, rng.choice(["throughput_mbps", "rbur"])))
        t0 = float(rng.uniform(0, 3600)) if rng.random() < 0.4 else None
        t1 = float(rng.uniform(3600, 90000)) if rng.random() < 0.4 else None
        return QueryTask(subject="kpi", t0=t0, t1=t1, filters=filters,
                         group_by=group, aggregates=aggs)

    def test_random_tasks_match_naive_recompute(self):
        rng = np.random.default_rng(123)
        wh = fresh()
        raw_rows = [(float(rng.uniform(0, 3 * 24 * 3600)),
                     "c%d" % rng.integers(0, 3),
                     float(rng.uniform(0, 100)), float(rng.uniform(0, 1)))
                    for _ in range(500)]
        put(wh, "kpi", sorted(raw_rows))
        wh.migrate_tiers(3 * 24 * 3600.0)  # mix of hot and cold tiers
        spec = kpi_spec()
        for _ in range(60):
            task = self._random_task(rng)
            got = wh.query(task).to_csv()
            # independent naive oracle: filter the raw python list directly
            oracle_rows = [r for r in sorted(raw_rows)
                           if (task.t0 is None or r[0] >= task.t0)
                           and (task.t1 is None or r[0] < task.t1)]
            want = run_aggregates(task, spec, oracle_rows).to_csv()
            assert got == want


# -- the columnar engine against the naive row-tuple oracle ----------------

_VALUES = {
    "str": st.sampled_from(["", "a", "ab", "b", "B", "é", "a,b"]),
    "int": st.integers(-3, 3) | st.integers(-2**62, 2**62),
    "float": st.sampled_from([-0.0, 0.0, 0.5, -2.0]) | st.floats(
        -1e6, 1e6, allow_nan=False, allow_infinity=False),
}
_OPS = ["==", "!=", "<", "<=", ">", ">="]


@st.composite
def engine_cases(draw):
    """A subject, its rows appended in two batches around a tier migration
    (late rows refreeze cold partitions), and queries over it."""
    dtypes = draw(st.lists(st.sampled_from(list(_VALUES)), min_size=1,
                           max_size=4))
    names = ["t_s"] + [f"c{i}" for i in range(len(dtypes))]
    dtypes = ["float"] + dtypes
    spec = SubjectSpec("s", [Column(n, d) for n, d in zip(names, dtypes)])
    row = st.tuples(st.floats(0.0, 6 * 3600.0 - 1.0),
                    *[_VALUES[d] for d in dtypes[1:]])
    batches = draw(st.lists(st.lists(row, max_size=25), min_size=1,
                            max_size=3))
    hot_window_s = draw(st.sampled_from([0.0, 3600.0, 7200.0]))
    bound = st.none() | st.floats(-3600.0, 7 * 3600.0)
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        filters = [(c, draw(st.sampled_from(_OPS)),
                    draw(_VALUES[dtypes[names.index(c)]]
                         if c != "t_s" else st.floats(0.0, 6 * 3600.0)))
                   for c in draw(st.lists(st.sampled_from(names),
                                          max_size=2))]
        group_by = draw(st.lists(st.sampled_from(names), max_size=2,
                                 unique=True))
        numeric = [n for n, d in zip(names, dtypes) if d != "str"]
        aggs = [("count", draw(st.sampled_from(["*"] + names)))]
        aggs += draw(st.lists(st.tuples(
            st.sampled_from(["sum", "mean", "min", "max", "p50", "p95"]),
            st.sampled_from(numeric)), max_size=3))
        queries.append(QueryTask(subject="s", t0=draw(bound), t1=draw(bound),
                                 filters=filters, group_by=group_by,
                                 aggregates=aggs))
    return spec, batches, hot_window_s, queries


class TestColumnarEngine:
    @settings(max_examples=150, deadline=None)
    @given(case=engine_cases())
    def test_query_matches_row_tuple_oracle(self, case):
        spec, batches, hot_window_s, queries = case
        wh = Warehouse(hot_window_s=hot_window_s)
        wh.create_subject(spec)
        appended = []
        for batch in batches:  # migrate after each batch: late rows refreeze
            put(wh, "s", batch)
            appended += batch
            wh.migrate_tiers(6 * 3600.0)
        # scan order: partition by partition, each in append order
        in_order = sorted(appended, key=lambda r: int(r[0] // 3600))
        for task in queries:
            naive = [r for r in in_order
                     if (task.t0 is None or r[0] >= task.t0)
                     and (task.t1 is None or r[0] < task.t1)]
            assert repr(wh.scan("s", task.t0, task.t1)) == repr(naive)
            names = [c.name for c in spec.columns]
            got = wh.read("s", names, task.t0, task.t1)
            assert list(got) == names
            for i, c in enumerate(spec.columns):
                assert got[c.name].dtype == {"str": object, "int": np.int64,
                                             "float": np.float64}[c.dtype]
                assert repr(got[c.name].tolist()) == repr([r[i]
                                                           for r in naive])
                # a caller cannot write into a partition's own array
                assert c.dtype == "str" or not got[c.name].flags.writeable
            assert wh.query(task).to_csv() == \
                run_aggregates(task, spec, naive).to_csv()
