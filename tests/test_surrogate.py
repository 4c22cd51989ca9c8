from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranopt.ai import throughput
from ranopt.ai.surrogate import build_grid_axes
from ranopt.ai.throughput import (UNCAPPED_DEMAND_MBPS, ConfigLog,
                                  _candidate_throughputs,
                                  estimate_demand_cap, fit_radio_maps,
                                  predicted_rsrp)
from ranopt.errors import InsufficientHistory, InvalidBounds
from ranopt.loop import usecases
from ranopt.simcore import engine
from ranopt.simcore.radio import (best_beam_rsrp_dbm, dbm_to_mw, noise_dbm)

from conftest import GridSearch, deploy, make_cell, make_scenario, stub_loop
from naive_oracle import LinearConfigLog, draw_users, schedule_and_rate


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


def simulate_history(scenario, config_plan, window_len_s=3600.0):
    """Run windows under a sequence of configs; returns the measurements as
    the warehouse's columns, the config log and the final scenario."""
    meas = []
    log = ConfigLog()
    state = scenario
    t = 0.0
    for fields_by_cell in config_plan:
        for cid, fields in fields_by_cell.items():
            state = engine.apply_command(state, cid, fields)
        log.record(t, {c.cell_id: c for c in state.cells})
        meas += engine.step(state, window_len_s, t)[0]
        t += window_len_s
    columns = {"t_s": [m.timestamp_s for m in meas],
               "cell_id": [m.cell_id for m in meas],
               "rsrp_dbm": [m.rsrp_dbm for m in meas],
               "pos_x_m": [m.pos[0] for m in meas],
               "pos_y_m": [m.pos[1] for m in meas],
               "rate_mbps": [m.rate_mbps for m in meas]}
    columns = {name: np.array(values, dtype=object if name == "cell_id"
                              else float)
               for name, values in columns.items()}
    return columns, log, state


def search(bounds, meas, log, state):
    """(fields, predicted throughput) of the command the throughput use
    case deploys to the first cell of state on a grid over bounds, with
    meas the whole beam history and log its config log."""
    loop = stub_loop(state, warehouse=SimpleNamespace(read=lambda *a: meas),
                     config_log=log)
    return deploy(GridSearch(bounds), loop)


def positions(columns, keep=slice(None)):
    return np.column_stack([columns["pos_x_m"][keep],
                            columns["pos_y_m"][keep]])


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
        # only the target cell must have enough measurements
        sc = make_scenario()
        cells = {c.cell_id: c for c in sc.cells}
        none, _, _ = simulate_history(sc, [])
        assert fit_radio_maps(none, cells, ConfigLog(), sc.carrier_ghz) == {}
        with pytest.raises(InsufficientHistory):
            fit_radio_maps(none, cells, ConfigLog(), sc.carrier_ghz,
                           target_cell="c1")

    def test_sparse_cell_predicted_by_the_analytic_model(self):
        far = make_cell("c2", site_pos=(20000.0, 20000.0, 25.0))
        sc = make_scenario(cells=[make_cell("c1"), far], shadow_sigma_db=4.0)
        meas, log, state = simulate_history(sc, [{}, {}])
        cells = {c.cell_id: c for c in state.cells}
        maps = fit_radio_maps(meas, cells, log, sc.carrier_ghz,
                              target_cell="c1")
        assert set(maps) == {"c1"}  # c2 serves no user
        pts = np.array([[200.0, 0.0], [260.0, 40.0]])
        analytic, _ = best_beam_rsrp_dbm(cells["c2"], pts, sc.carrier_ghz)
        assert np.array_equal(predicted_rsrp(cells["c2"], None, pts,
                                             sc.carrier_ghz), analytic)
        [score] = _candidate_throughputs(
            cells, maps, pts, sc.bandwidth_mhz, sc.carrier_ghz, "c2",
            [{"tilt_deg": 4.0}], UNCAPPED_DEMAND_MBPS)
        assert score > 0.0

    def test_predicted_rsrp_without_shadowing(self):
        # no shadowing: residual is ~0 and the prediction matches physics
        sc = make_scenario(shadow_sigma_db=0.0)
        meas, log, state = simulate_history(sc, [{}, {}, {}])
        cells = {c.cell_id: c for c in state.cells}
        maps = fit_radio_maps(meas, cells, log, sc.carrier_ghz)
        pts = np.array([[220.0, 10.0], [300.0, -30.0]])
        truth, _ = best_beam_rsrp_dbm(cells["c1"], pts, sc.carrier_ghz)
        pred = predicted_rsrp(cells["c1"], maps["c1"], pts, sc.carrier_ghz)
        assert np.allclose(pred, truth, atol=1.0)

    def test_predicted_rsrp_with_shadowing(self):
        sc = make_scenario(shadow_sigma_db=4.0)
        meas, log, state = simulate_history(sc, [{}] * 6)
        cells = {c.cell_id: c for c in state.cells}
        maps = fit_radio_maps(meas, cells, log, sc.carrier_ghz)
        # held-out window from the same hotspot
        users = draw_users(sc, 7 * 3600.0)
        pts = np.array([u.pos for u in users])
        shadows = engine.shadow_fields(sc)
        truth, _ = best_beam_rsrp_dbm(cells["c1"], pts, sc.carrier_ghz,
                                      shadows["c1"])
        pred = predicted_rsrp(cells["c1"], maps["c1"], pts, sc.carrier_ghz)
        assert np.mean(np.abs(pred - truth)) < 3.0

    def test_map_transfers_to_a_moved_pointing(self):
        # shadowing is a field of position, so a map fitted under one
        # pointing predicts the residual at another as well as at its own
        moved_errors, analytic_errors = [], []
        for seed in range(5):
            sc = make_scenario(seed=seed, shadow_sigma_db=4.0)
            meas, log, state = simulate_history(sc, [{}] * 6)
            cells = {c.cell_id: c for c in state.cells}
            gpr = fit_radio_maps(meas, cells, log, sc.carrier_ghz)["c1"]
            pts = np.array([u.pos for u in draw_users(sc, 7 * 3600.0)])
            shadow = engine.shadow_fields(sc)["c1"]

            def errors(cell, radio_map):
                truth, _ = best_beam_rsrp_dbm(cell, pts, sc.carrier_ghz,
                                              shadow)
                return np.abs(predicted_rsrp(cell, radio_map, pts,
                                             sc.carrier_ghz) - truth)

            own = errors(cells["c1"], gpr).mean()
            for moved in ({"azimuth_deg": 20.0}, {"azimuth_deg": 25.0},
                          {"azimuth_deg": 330.0}, {"tilt_deg": 2.0},
                          {"tilt_deg": 10.0}):
                cell = cells["c1"].replace(**moved)
                moved_errors.append(errors(cell, gpr))
                assert moved_errors[-1].mean() == pytest.approx(
                    own, abs=0.01), (seed, moved)
                analytic_errors.append(errors(cell, None))
        # pooled over the seeds: on 12 held-out users, one seed's map
        # (seed 4) falls just short of half the analytic error
        assert (np.concatenate(moved_errors).mean()
                < 0.5 * np.concatenate(analytic_errors).mean())

    def test_throughput_prediction_single_cell_oracle(self):
        sc = make_scenario(shadow_sigma_db=0.0)
        meas, log, state = simulate_history(sc, [{}, {}])
        cells = {c.cell_id: c for c in state.cells}
        maps = fit_radio_maps(meas, cells, log, sc.carrier_ghz)
        pts = np.array([[200.0, 0.0], [260.0, 40.0], [320.0, -60.0]])
        [got] = _candidate_throughputs(cells, maps, pts, sc.bandwidth_mhz,
                                       sc.carrier_ghz, None, [{}],
                                       UNCAPPED_DEMAND_MBPS)
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
        meas, log, state = simulate_history(sc, [{}] * 3)
        bounds = {"azimuth_deg": (0.0, 40.0), "tilt_deg": (4.0, 8.0),
                  "tx_power_dbm": (50.0, 50.0)}
        # the loop's steps: 10 degrees of azimuth, 2 of tilt
        fields, predicted = search(bounds, meas, log, state)
        assert abs(fields["azimuth_deg"]) <= 10.0  # hotspot sits at 0 degrees
        assert predicted > 0.0

    def test_candidates_set_only_pointing_and_power(self):
        # the radio kernel takes azimuth, tilt and power per candidate; any
        # other field would be dropped without a word
        cells = {"c1": make_cell()}
        with pytest.raises(ValueError, match="may set only"):
            _candidate_throughputs(
                cells, {}, [[200.0, 0.0]], 20.0, 3.5, "c1",
                [{"tilt_deg": 4.0, "cio_db": 3.0}], UNCAPPED_DEMAND_MBPS)

    def test_ties_go_to_the_smallest_tuple(self, monkeypatch):
        sc = make_scenario(cells=[make_cell()], shadow_sigma_db=0.0)
        meas, log, state = simulate_history(sc, [{}] * 3)
        monkeypatch.setattr(throughput, "_candidate_throughputs",
                            lambda *args: [1.0] * len(args[6]))
        bounds = {"azimuth_deg": (0.0, 40.0), "tilt_deg": (4.0, 8.0),
                  "tx_power_dbm": (48.0, 50.0)}
        fields, predicted = search(bounds, meas, log, state)
        assert (fields, predicted) == ({"azimuth_deg": 0.0, "tilt_deg": 4.0,
                                        "tx_power_dbm": 48.0}, 1.0)

    def test_batched_grid_scores_equal_single_predictions(self):
        cells_list = [make_cell("c1", azimuth_deg=0.0),
                      make_cell("c2", site_pos=(500.0, 0.0, 25.0),
                                azimuth_deg=180.0)]
        sc = make_scenario(cells=cells_list, shadow_sigma_db=3.0)
        meas, log, state = simulate_history(sc, [{}] * 3)
        cells = {c.cell_id: c for c in state.cells}
        maps = fit_radio_maps(meas, cells, log, sc.carrier_ghz)
        pts = positions(meas, slice(-20, None))
        bounds = {"azimuth_deg": (0.0, 40.0), "tilt_deg": (2.0, 10.0),
                  "tx_power_dbm": (48.0, 50.0)}
        # the loop's grid: 10 degrees of azimuth, 2 of tilt, 1 dB
        grid = GridSearch(bounds).candidates(None, cells["c2"])
        y = _candidate_throughputs(cells, maps, pts, sc.bandwidth_mhz,
                                   sc.carrier_ghz, "c2", grid, 80.0)
        assert len(y) == 5 * 5 * 3
        for point, score in zip(grid, y):
            [want] = _candidate_throughputs(
                cells, maps, pts, sc.bandwidth_mhz, sc.carrier_ghz, "c2",
                [point], 80.0)
            assert score == pytest.approx(want, rel=1e-12)

    def test_large_grid_scored_exactly(self, monkeypatch):
        cell = make_cell(azimuth_deg=30.0)
        sc = make_scenario(cells=[cell], shadow_sigma_db=0.0)
        meas, log, state = simulate_history(sc, [{}] * 3)
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
        monkeypatch.setattr(usecases, "GRID_STEPS", steps)
        fields, predicted = search(bounds, meas, log, state)
        monkeypatch.undo()
        assert sum(batches) == 1755

        maps = fit_radio_maps(meas, cells, log, sc.carrier_ghz)
        pts = positions(meas, meas["t_s"] == meas["t_s"][-1])
        cap = estimate_demand_cap(meas["rate_mbps"])
        exact = [_candidate_throughputs(
            cells, maps, pts, sc.bandwidth_mhz, sc.carrier_ghz, "c1", [p],
            cap)[0] for p in points]
        best = max(exact)
        assert predicted == pytest.approx(best, rel=1e-12)
        first = next(p for p, v in zip(points, exact)
                     if v == pytest.approx(best, rel=1e-12))
        assert fields == first
