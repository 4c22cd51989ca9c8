import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranopt.ai import throughput
from ranopt.ai.surrogate import (augment_rsrp, build_grid_axes, fit_surrogate,
                                 optimize_config)
from ranopt.ai.throughput import (ConfigLog, build_surrogate_dataset,
                                  estimate_demand_cap, fit_radio_maps,
                                  predict_network_throughput, predicted_rsrp,
                                  recommend_config)
from ranopt.errors import InsufficientHistory, InvalidBounds
from ranopt.simcore import engine
from ranopt.simcore.radio import (best_beam_rsrp_dbm, dbm_to_mw, noise_dbm)
from ranopt.simcore.scheduler import schedule_and_rate

from conftest import make_cell, make_scenario
from naive_oracle import LinearConfigLog


class FnSurrogate:
    """Adapter: score an analytic function of (az, tilt, power) rows."""

    def __init__(self, fn):
        self.fn = fn

    def predict(self, X):
        X = np.atleast_2d(X)
        return np.array([self.fn(*row[:3]) for row in X])


class TestGridAxes:
    def test_axis_values(self):
        axes = build_grid_axes({"azimuth_deg": (10.0, 30.0),
                                "tilt_deg": (2.0, 4.0),
                                "tx_power_dbm": (46.0, 46.0)})
        assert np.allclose(axes["azimuth_deg"], [10, 15, 20, 25, 30])
        assert np.allclose(axes["tilt_deg"], [2, 3, 4])
        assert np.allclose(axes["tx_power_dbm"], [46.0])

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidBounds):
            build_grid_axes({"azimuth_deg": (30.0, 10.0)})

    def test_no_fields_rejected(self):
        with pytest.raises(InvalidBounds):
            build_grid_axes({"bogus": (0.0, 1.0)})


class TestOptimizeConfig:
    BOUNDS = {"azimuth_deg": (0.0, 40.0), "tilt_deg": (2.0, 6.0),
              "tx_power_dbm": (46.0, 48.0)}

    @staticmethod
    def quadratic(az, tilt, pw):
        return -((az - 25.0) ** 2) - 2.0 * (tilt - 5.0) ** 2 \
            - 0.5 * (pw - 47.0) ** 2

    def brute_force(self, bounds, fn):
        axes = build_grid_axes(bounds)
        best, val = None, -np.inf
        for az in axes["azimuth_deg"]:
            for tilt in axes["tilt_deg"]:
                for pw in axes["tx_power_dbm"]:
                    v = fn(az, tilt, pw)
                    if v > val:
                        best, val = (az, tilt, pw), v
        return best, val

    def test_exhaustive_matches_brute_force(self):
        axes = build_grid_axes(self.BOUNDS)
        n_points = np.prod([len(a) for a in axes.values()])
        assert n_points <= 200  # stays on the exhaustive path
        fields, val = optimize_config(FnSurrogate(self.quadratic), self.BOUNDS)
        (az, tilt, pw), best = self.brute_force(self.BOUNDS, self.quadratic)
        assert (fields["azimuth_deg"], fields["tilt_deg"],
                fields["tx_power_dbm"]) == (az, tilt, pw)
        assert val == pytest.approx(best)

    def test_constant_surface_picks_lexicographic_minimum(self):
        fields, _ = optimize_config(FnSurrogate(lambda *a: 1.0), self.BOUNDS)
        assert fields == {"azimuth_deg": 0.0, "tilt_deg": 2.0,
                          "tx_power_dbm": 46.0}

    def test_coordinate_descent_on_large_separable_grid(self):
        bounds = {"azimuth_deg": (0.0, 180.0), "tilt_deg": (0.0, 14.0),
                  "tx_power_dbm": (40.0, 52.0)}
        axes = build_grid_axes(bounds)
        assert np.prod([len(a) for a in axes.values()]) > 200
        fields, _ = optimize_config(FnSurrogate(self.quadratic), bounds)
        brute, _ = self.brute_force(bounds, self.quadratic)
        assert (fields["azimuth_deg"], fields["tilt_deg"],
                fields["tx_power_dbm"]) == brute


class TestFitSurrogate:
    def test_learns_smooth_surface(self):
        rng = np.random.default_rng(0)
        X = rng.uniform([0, 0, 44], [40, 8, 48], size=(300, 3))
        y = 500.0 - (X[:, 0] - 25) ** 2 - 10 * (X[:, 1] - 5) ** 2 \
            + 20 * (X[:, 2] - 46)
        model = fit_surrogate(X, y, seed=0)
        pred = model.predict(X)
        rel = np.mean(np.abs(pred - y)) / np.std(y)
        assert rel < 0.1


class TestAugmentRsrp:
    def test_shapes_and_training_fit(self):
        cell = make_cell()
        rng = np.random.default_rng(2)
        pts = np.column_stack([rng.uniform(100, 400, 60),
                               rng.uniform(-150, 150, 60)])
        rsrp, _ = best_beam_rsrp_dbm(cell, pts, 3.55)
        records = np.column_stack([pts, np.zeros(60), np.full(60, 6.0), rsrp])
        grid = np.column_stack([rng.uniform(120, 380, 25),
                                rng.uniform(-120, 120, 25)])
        table, model = augment_rsrp(records, grid, [(0.0, 6.0), (0.0, 8.0)])
        assert table.shape == (50, 5)
        # predictions at the measured angle interpolate the field
        back = model.predict(records[:, :4])
        assert np.mean(np.abs(back - rsrp)) < 2.0


def simulate_history(scenario, config_plan, window_len_s=3600.0):
    """Run windows under a sequence of configs; returns rows + config log."""
    rows = []
    log = ConfigLog()
    state = scenario
    t = 0.0
    for fields_by_cell in config_plan:
        for cid, fields in fields_by_cell.items():
            state = engine.apply_command(state, cid, fields)
        log.record(t, {c.cell_id: c for c in state.cells})
        meas, _ = engine.step(state, window_len_s, t)
        for m in meas:
            rows.append({"t_s": m.timestamp_s, "cell_id": m.cell_id,
                         "rsrp_dbm": m.rsrp_dbm, "pos_x_m": m.pos[0],
                         "pos_y_m": m.pos[1]})
        t += window_len_s
    return rows, log, state


class TestRadioMaps:
    def test_config_log_lookup(self):
        log = ConfigLog()
        log.record(0.0, {"c1": make_cell(azimuth_deg=10.0)})
        log.record(3600.0, {"c1": make_cell(azimuth_deg=20.0)})
        assert log.lookup("c1", 1800.0)["azimuth_deg"] == 10.0
        assert log.lookup("c1", 3600.0)["azimuth_deg"] == 20.0
        assert log.lookup("c1", 9999.0)["azimuth_deg"] == 20.0
        assert log.lookup("c2", 100.0) is None

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(st.tuples(
               st.sampled_from([0.0, 5.0, 5.0, 10.0, 60.0, 3600.0]),
               st.sets(st.sampled_from(["c1", "c2", "c3"]))), max_size=12),
           probes=st.lists(st.floats(-10.0, 4000.0), max_size=8))
    def test_config_log_equals_linear_scan(self, records, probes):
        # equal times are common, so a later record must win as the
        # stable re-sort made it; some cells miss from some snapshots
        log, oracle = ConfigLog(), LinearConfigLog()
        for k, (t, ids) in enumerate(records):
            cells = {cid: make_cell(cid, azimuth_deg=float(k)) for cid in ids}
            log.record(t, cells)
            oracle.record(t, cells)
        for t in probes + [t for t, _ in records]:
            for cid in ("c1", "c2", "c3"):
                assert log.lookup(cid, t) == oracle.lookup(cid, t)

    def test_insufficient_history(self):
        sc = make_scenario()
        with pytest.raises(InsufficientHistory):
            fit_radio_maps([], {c.cell_id: c for c in sc.cells},
                           ConfigLog(), sc.carrier_ghz)

    def test_predicted_rsrp_without_shadowing(self):
        # no shadowing: residual is ~0 and the prediction matches physics
        sc = make_scenario(shadow_sigma_db=0.0)
        rows, log, state = simulate_history(sc, [{}, {}, {}])
        cells = {c.cell_id: c for c in state.cells}
        maps = fit_radio_maps(rows, cells, log, sc.carrier_ghz)
        pts = np.array([[220.0, 10.0], [300.0, -30.0]])
        truth, _ = best_beam_rsrp_dbm(cells["c1"], pts, sc.carrier_ghz)
        pred = predicted_rsrp(cells["c1"], maps["c1"], pts, sc.carrier_ghz)
        assert np.allclose(pred, truth, atol=1.0)

    def test_predicted_rsrp_with_shadowing(self):
        sc = make_scenario(shadow_sigma_db=4.0)
        rows, log, state = simulate_history(sc, [{}] * 6)
        cells = {c.cell_id: c for c in state.cells}
        maps = fit_radio_maps(rows, cells, log, sc.carrier_ghz)
        # held-out window from the same hotspot
        users = engine.draw_users(sc, 7 * 3600.0)
        pts = np.array([u.pos for u in users])
        shadows = engine.shadow_fields(sc)
        truth, _ = best_beam_rsrp_dbm(cells["c1"], pts, sc.carrier_ghz,
                                      shadows["c1"])
        pred = predicted_rsrp(cells["c1"], maps["c1"], pts, sc.carrier_ghz)
        assert np.mean(np.abs(pred - truth)) < 3.0

    def test_throughput_prediction_single_cell_oracle(self):
        sc = make_scenario(shadow_sigma_db=0.0)
        rows, log, state = simulate_history(sc, [{}, {}])
        cells = {c.cell_id: c for c in state.cells}
        maps = fit_radio_maps(rows, cells, log, sc.carrier_ghz)
        pts = np.array([[200.0, 0.0], [260.0, 40.0], [320.0, -60.0]])
        got = predict_network_throughput(cells, maps, pts, sc.bandwidth_mhz,
                                         sc.carrier_ghz)
        rsrp, _ = best_beam_rsrp_dbm(cells["c1"], pts, sc.carrier_ghz)
        noise_mw = dbm_to_mw(noise_dbm(sc.bandwidth_mhz))
        sinr = 10.0 * np.log10(dbm_to_mw(rsrp) / noise_mw)
        _, expected, _ = schedule_and_rate(sc.bandwidth_mhz,
                                           np.clip(sinr, -23, 40),
                                           np.full(3, 1e9))
        assert got == pytest.approx(expected, rel=0.05)


class TestRecommendConfig:
    def test_detuned_cell_recovers_toward_hotspot(self):
        # cell mispointed 30 degrees away from the only hotspot: the
        # recommendation should steer the azimuth back toward it
        cell = make_cell(azimuth_deg=30.0)
        sc = make_scenario(cells=[cell], shadow_sigma_db=0.0)
        rows, log, state = simulate_history(sc, [{}] * 3)
        cells = {c.cell_id: c for c in state.cells}
        bounds = {"azimuth_deg": (0.0, 40.0), "tilt_deg": (4.0, 8.0),
                  "tx_power_dbm": (50.0, 50.0)}
        fields, predicted = recommend_config(
            rows, cells, log, "c1", bounds, sc.bandwidth_mhz, sc.carrier_ghz,
            steps={"azimuth_deg": 10.0, "tilt_deg": 2.0})
        assert abs(fields["azimuth_deg"]) <= 10.0  # hotspot sits at 0 degrees
        assert predicted > 0.0

    def test_ties_go_to_the_smallest_tuple(self, monkeypatch):
        sc = make_scenario(cells=[make_cell()], shadow_sigma_db=0.0)
        rows, log, state = simulate_history(sc, [{}] * 3)
        monkeypatch.setattr(throughput, "_candidate_throughputs",
                            lambda *args: [1.0] * len(args[6]))
        bounds = {"azimuth_deg": (0.0, 40.0), "tilt_deg": (4.0, 8.0),
                  "tx_power_dbm": (48.0, 50.0)}
        fields, predicted = recommend_config(
            rows, {c.cell_id: c for c in state.cells}, log, "c1", bounds,
            sc.bandwidth_mhz, sc.carrier_ghz)
        assert (fields, predicted) == ({"azimuth_deg": 0.0, "tilt_deg": 4.0,
                                        "tx_power_dbm": 48.0}, 1.0)

    def test_batched_grid_scores_equal_single_predictions(self):
        cells_list = [make_cell("c1", azimuth_deg=0.0),
                      make_cell("c2", site_pos=(500.0, 0.0, 25.0),
                                azimuth_deg=180.0)]
        sc = make_scenario(cells=cells_list, shadow_sigma_db=3.0)
        rows, log, state = simulate_history(sc, [{}] * 3)
        cells = {c.cell_id: c for c in state.cells}
        maps = fit_radio_maps(rows, cells, log, sc.carrier_ghz)
        pts = np.array([[r["pos_x_m"], r["pos_y_m"]] for r in rows[-20:]])
        bounds = {"azimuth_deg": (0.0, 40.0), "tilt_deg": (2.0, 10.0),
                  "tx_power_dbm": (48.0, 50.0)}
        X, y, names = build_surrogate_dataset(
            cells, maps, pts, sc.bandwidth_mhz, sc.carrier_ghz, "c2",
            bounds, {"azimuth_deg": 10.0, "tilt_deg": 2.0}, demand_mbps=80.0)
        assert len(y) == 5 * 5 * 3
        for x, score in zip(X, y):
            want = predict_network_throughput(
                cells, maps, pts, sc.bandwidth_mhz, sc.carrier_ghz,
                target_cell="c2", candidate_fields=dict(zip(names, x)),
                demand_mbps=80.0)
            assert score == pytest.approx(want, rel=1e-12)

    def test_grid_above_batch_size_scored_exactly(self, monkeypatch):
        cell = make_cell(azimuth_deg=30.0)
        sc = make_scenario(cells=[cell], shadow_sigma_db=0.0)
        rows, log, state = simulate_history(sc, [{}] * 3)
        cells = {c.cell_id: c for c in state.cells}
        bounds = {"azimuth_deg": (0.0, 40.0), "tilt_deg": (0.0, 14.0),
                  "tx_power_dbm": (40.0, 52.0)}
        steps = {"azimuth_deg": 5.0, "tilt_deg": 1.0, "tx_power_dbm": 1.0}
        axes = build_grid_axes(bounds, steps)
        names = list(axes)
        points = [{n: float(axes[n][i]) for n, i in zip(names, idx)}
                  for idx in np.ndindex(*[len(axes[n]) for n in names])]
        assert len(points) == 1755
        batches = []
        score = throughput._candidate_throughputs

        def counted(*args):
            batches.append(len(args[6]))
            return score(*args)

        monkeypatch.setattr(throughput, "_candidate_throughputs", counted)
        fields, predicted = recommend_config(
            rows, cells, log, "c1", bounds, sc.bandwidth_mhz, sc.carrier_ghz,
            steps)
        monkeypatch.undo()
        assert sum(batches) == 1755
        assert max(batches) == throughput.CANDIDATE_BATCH

        maps = fit_radio_maps(rows, cells, log, sc.carrier_ghz)
        latest = [r for r in rows if r["t_s"] == rows[-1]["t_s"]]
        pts = np.array([[r["pos_x_m"], r["pos_y_m"]] for r in latest])
        exact = [predict_network_throughput(
            cells, maps, pts, sc.bandwidth_mhz, sc.carrier_ghz,
            target_cell="c1", candidate_fields=p,
            demand_mbps=estimate_demand_cap(rows)) for p in points]
        best = max(exact)
        assert predicted == pytest.approx(best, rel=1e-12)
        first = next(p for p, v in zip(points, exact)
                     if v == pytest.approx(best, rel=1e-12))
        assert fields == first
