import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranopt.errors import (AlreadyExists, DegenerateColumn, RetentionError,
                           SchemaError, SubjectNotFound)
from ranopt.simcore import aau_power_w
from ranopt.warehouse import (Column, QueryTask, SubjectSpec, Warehouse,
                              bundled_subjects, create_bundled_subjects)
from ranopt.warehouse.query import aggregate_values

from conftest import make_cell
from naive_oracle import run_aggregates


def kpi_spec(name="kpi"):
    return SubjectSpec(name, [Column("t_s", "float", "s"),
                              Column("cell_id", "str"),
                              Column("throughput_mbps", "float"),
                              Column("rbur", "float")])


def fresh(name="kpi"):
    wh = Warehouse()
    wh.create_subject(kpi_spec(name))
    return wh


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
            wh.append("nope", [])


class TestAppend:
    def test_append_zero_rows(self):
        wh = fresh()
        assert wh.append("kpi", []) == 0
        assert wh.row_count("kpi") == 0

    def test_append_count_conservation(self):
        wh = fresh()
        rows = [(float(i * 600), "c1", 10.0 * i, 0.1) for i in range(20)]
        assert wh.append("kpi", rows) == 20
        res = wh.query(QueryTask(subject="kpi", aggregates=[("count", "*")]))
        assert res.rows[0][0] == 20

    def test_schema_mismatch_names_column(self):
        wh = fresh()
        with pytest.raises(SchemaError, match="throughput_mbps"):
            wh.append("kpi", [{"t_s": 0.0, "cell_id": "c1", "rbur": 0.1}])

    def test_bad_value_atomic(self):
        wh = fresh()
        rows = [(0.0, "c1", 5.0, 0.1), (1.0, "c1", "oops", 0.1)]
        with pytest.raises(SchemaError):
            wh.append("kpi", rows)
        assert wh.row_count("kpi") == 0

    def test_out_of_retention_rejected(self):
        wh = fresh()
        wh.append("kpi", [(30 * 24 * 3600.0, "c1", 5.0, 0.1)])
        with pytest.raises(RetentionError):
            wh.append("kpi", [(0.0, "c1", 5.0, 0.1)])

    def test_row_far_ahead_of_clock_rejected(self):
        week_s = 7 * 24 * 3600.0  # the default retention
        wh = fresh()
        wh.append("kpi", [(1.7e9, "c1", 5.0, 0.1)])  # the first row sets
        assert wh.clock_s == 1.7e9                  # the clock, any epoch
        wh.append("kpi", [(1.7e9 + 2 * week_s, "c1", 5.0, 0.1)])
        with pytest.raises(RetentionError, match="ahead"):
            wh.append("kpi", [(1.7e9 + 4 * week_s + 1.0, "c1", 5.0, 0.1),
                              (1.7e9 + 10.0, "c1", 5.0, 0.1)])
        assert wh.clock_s == 1.7e9 + 2 * week_s
        assert wh.row_count("kpi") == 2
        wh.append("kpi", [(1.7e9 + 2 * week_s + 1.0, "c1", 5.0, 0.1)])
        with pytest.raises(RetentionError, match="ahead"):  # refused again
            wh.append("kpi", [(1e15, "c1", 5.0, 0.1)])    # after a row taken
        assert wh.row_count("kpi") == 3

    def test_data_resuming_after_a_long_gap_taken_from_its_second_row(self):
        week_s = 7 * 24 * 3600.0
        wh = fresh()
        wh.append("kpi", [(0.0, "c1", 5.0, 0.1)])
        with pytest.raises(RetentionError, match="ahead"):
            wh.append("kpi", [(3 * week_s, "c1", 5.0, 0.1)])
        with pytest.raises(SchemaError):  # takes no row, changes nothing
            wh.append("kpi", [(3 * week_s, "c1", "oops", 0.1)])
        wh.append("kpi", [(3 * week_s + 60.0, "c1", 5.0, 0.1)])
        assert wh.clock_s == 3 * week_s + 60.0
        wh.append("kpi", [(3 * week_s + 120.0, "c1", 5.0, 0.1)])
        assert wh.row_count("kpi") == 3

    def test_int_outside_64_bits_rejected(self):
        wh = Warehouse()
        wh.create_subject(SubjectSpec("n", [Column("t_s", "float"),
                                            Column("n", "int")]))
        wh.append("n", [(0.0, 2**63 - 1), (1.0, -2**63)])
        with pytest.raises(SchemaError, match="'n'"):
            wh.append("n", [(2.0, 5), (3.0, 2**63)])
        assert wh.scan("n") == [(0.0, 2**63 - 1), (1.0, -2**63)]

    def test_late_row_joins_cold_partition(self):
        wh = Warehouse(hot_window_s=3600.0)
        wh.create_subject(kpi_spec())
        wh.append("kpi", [(0.0, "c1", 5.0, 0.1), (3 * 3600.0, "c2", 6.0, 0.2)])
        assert wh.migrate_tiers(4 * 3600.0) == [("kpi", 0)]
        wh.append("kpi", [(10.0, "c3", 7.0, 0.3), (20.0, "c1", 8.0, 0.4)])
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
        wh.append("kpi", [(0.0, "c1", 10.0, 0.1), (1.0, "c1", 20.0, 0.1),
                          (2.0, "c1", 30.0, 0.1)])
        res = wh.query(QueryTask(subject="kpi",
                                 aggregates=[("mean", "throughput_mbps")]))
        assert res.rows == [(20.0,)]

    def test_group_by_hand_computed(self):
        wh = fresh()
        wh.append("kpi", [(0.0, "c1", 10.0, 0.1), (1.0, "c2", 99.0, 0.5),
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
        wh.append("g", [(0.0, n, x) for n, x in
                        ((10, -1.0), (9, -2.0), (10, -10.0), (100, -1.0))])
        by_n = wh.query(QueryTask(subject="g", group_by=["n"],
                                  aggregates=[("count", "*")]))
        assert by_n.rows == [(9, 1), (10, 2), (100, 1)]
        by_x = wh.query(QueryTask(subject="g", group_by=["x"],
                                  aggregates=[("count", "*")]))
        assert by_x.rows == [(-10.0, 1), (-2.0, 1), (-1.0, 2)]

    def test_filters_and_time_range(self):
        wh = fresh()
        wh.append("kpi", [(t, "c1", float(t), 0.1) for t in
                          (0.0, 1800.0, 3600.0, 7200.0)])
        res = wh.query(QueryTask(subject="kpi", t0=0.0, t1=3600.0,
                                 filters=[("throughput_mbps", ">", 0.0)],
                                 aggregates=[("count", "*")]))
        assert res.rows == [(1,)]

    def test_unknown_column(self):
        wh = fresh()
        with pytest.raises(SchemaError):
            wh.query(QueryTask(subject="kpi", aggregates=[("mean", "bogus")]))

    def test_only_count_takes_a_string_column_or_star(self):
        wh = fresh()
        wh.append("kpi", [(0.0, "c1", 5.0, 0.1)])
        assert wh.query(QueryTask(subject="kpi", aggregates=[
            ("count", "cell_id")])).rows == [(1,)]
        with pytest.raises(SchemaError, match="numeric"):
            wh.query(QueryTask(subject="kpi", aggregates=[("max", "cell_id")]))
        with pytest.raises(SchemaError, match="count"):
            QueryTask(subject="kpi", aggregates=[("sum", "*")])
        with pytest.raises(SchemaError, match="numeric"):
            wh.correlate("kpi", "cell_id", "rbur")

    def test_percentiles_against_numpy(self):
        wh = fresh()
        vals = list(np.random.default_rng(5).uniform(0, 100, 37))
        wh.append("kpi", [(float(i), "c1", float(v), 0.1)
                          for i, v in enumerate(vals)])
        res = wh.query(QueryTask(subject="kpi",
                                 aggregates=[("p50", "throughput_mbps"),
                                             ("p95", "throughput_mbps")]))
        assert res.rows[0][0] == pytest.approx(np.percentile(vals, 50))
        assert res.rows[0][1] == pytest.approx(np.percentile(vals, 95))

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


class TestTiering:
    def test_fresh_partitions_stay(self):
        wh = fresh()
        wh.append("kpi", [(0.0, "c1", 5.0, 0.1)])
        assert wh.migrate_tiers(3600.0) == []

    def test_stale_partition_moves_rows_preserved(self):
        wh = fresh()
        wh.append("kpi", [(0.0, "c1", 5.0, 0.1), (10.0, "c1", 6.0, 0.2)])
        wh.append("kpi", [(48 * 3600.0, "c1", 7.0, 0.3)])
        moved = wh.migrate_tiers(48 * 3600.0)
        assert moved == [("kpi", 0)]
        assert wh.row_count("kpi") == 3

    def test_query_equality_across_migration(self):
        wh = fresh()
        rng = np.random.default_rng(9)
        rows = [(float(i * 60), "c%d" % (i % 3), float(rng.uniform(0, 50)),
                 float(rng.uniform(0, 1))) for i in range(200)]
        wh.append("kpi", rows)
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
        wh.append("m", rows)
        ranges = [(None, None), (5.0, 7250.0), (6.0, None), (None, 3600.0)]
        before = [wh.scan("m", t0, t1) for t0, t1 in ranges]
        assert before[0] == [rows[1], rows[3], rows[2], rows[0], rows[4]]
        assert wh.migrate_tiers(5 * 3600.0) == [("m", 0), ("m", 1), ("m", 2)]
        after = [wh.scan("m", t0, t1) for t0, t1 in ranges]
        assert repr(after) == repr(before)
        assert [[tuple(map(type, r)) for r in part] for part in after] == \
            [[(float, str, int, float)] * len(part) for part in before]

    def test_retention_expiry(self):
        wh = fresh()
        wh.append("kpi", [(0.0, "c1", 5.0, 0.1)])
        wh.migrate_tiers(8 * 24 * 3600.0)
        assert wh.row_count("kpi") == 0
        assert wh.counters("kpi") == {"appended": 1, "expired": 1, "retained": 0}


class TestCorrelate:
    def test_identity(self):
        wh = fresh()
        wh.append("kpi", [(float(i), "c1", float(i), float(i) / 10)
                          for i in range(10)])
        assert wh.correlate("kpi", "throughput_mbps", "throughput_mbps") \
            == pytest.approx(1.0)

    def test_negation(self):
        wh = fresh()
        wh.append("kpi", [(float(i), "c1", float(i), 1.0 - float(i) / 10)
                          for i in range(10)])
        assert wh.correlate("kpi", "throughput_mbps", "rbur") \
            == pytest.approx(-1.0)

    def test_zero_variance(self):
        wh = fresh()
        wh.append("kpi", [(float(i), "c1", 5.0, 0.1) for i in range(5)])
        with pytest.raises(DegenerateColumn):
            wh.correlate("kpi", "throughput_mbps", "rbur")

    def test_energy_model_pairs_match_recompute(self):
        # (rbur, power) pairs produced by the energy model
        cell = make_cell()
        rburs = [0.1, 0.3, 0.5, 0.7, 0.9]
        powers = [aau_power_w(cell, r) for r in rburs]
        wh = Warehouse()
        wh.create_subject(SubjectSpec("en", [Column("t_s", "float"),
                                             Column("rbur", "float"),
                                             Column("power_w", "float")]))
        wh.append("en", [(float(i), r, p)
                         for i, (r, p) in enumerate(zip(rburs, powers))])
        r = wh.correlate("en", "rbur", "power_w")
        assert r == pytest.approx(np.corrcoef(rburs, powers)[0, 1])


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
        wh.append("kpi", sorted(raw_rows))
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
            wh.append("s", batch)
            appended += batch
            wh.migrate_tiers(6 * 3600.0)
        # scan order: partition by partition, each in append order
        in_order = sorted(appended, key=lambda r: int(r[0] // 3600))
        for task in queries:
            naive = [r for r in in_order
                     if (task.t0 is None or r[0] >= task.t0)
                     and (task.t1 is None or r[0] < task.t1)]
            assert repr(wh.scan("s", task.t0, task.t1)) == repr(naive)
            assert wh.query(task).to_csv() == \
                run_aggregates(task, spec, naive).to_csv()
