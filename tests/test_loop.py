import copy
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranopt.ai import throughput
from ranopt.ai.dqn import (HIDDEN, N_ACTIONS, DqnConfig, dqn_train, obs_dim,
                           observe)
from ranopt.ai.mlp import Mlp
from ranopt.errors import InsufficientHistory, ValidationError
from ranopt.loop import (USE_CASES, ClosedLoop, Command, CommandLog,
                         LoopReport, UseCase, rollback_if_worse,
                         run_closed_loop, validate_command)
from ranopt.loop.runner import KpiSnapshot
from ranopt.loop.usecases import Energy, Mimo
from ranopt.scenarios import load_bundled, scenario_path
from ranopt.simcore import engine
from ranopt.simcore.energy import energy_step
from ranopt.simcore.types import HotspotCluster
from ranopt.warehouse.subjects import SUBJECT_BEAM

from conftest import make_cell, make_scenario, stub_loop, two_cell_scenario

DIURNAL = [0.1, 0.05, 0.05, 0.05, 0.05, 0.1, 0.3, 0.6, 0.9, 1.0, 1.0, 0.9,
           0.8, 0.8, 0.9, 1.0, 1.0, 0.9, 0.7, 0.5, 0.4, 0.3, 0.2, 0.1]


def snap(objective):
    return KpiSnapshot(0.0, 3600.0, {}, objective)


def noop_optimizer(loop, before):
    return Command(loop.scenario.cells[0].cell_id, {}, "stub", loop.epoch)


class Stub(UseCase):
    """The throughput objective and rollback rule around a test's optimizer;
    a test swaps it in for the throughput use case through the registry.
    A given decision replaces the rollback rule."""

    def __init__(self, optimizer=noop_optimizer, decision=None):
        self.optimizer, self.decision = optimizer, decision

    def optimize(self, loop, before):
        return self.optimizer(loop, before)

    def decide(self, loop, before, after, prior_cells):
        return self.decision or super().decide(loop, before, after,
                                               prior_cells)


def interference_scenario():
    """Two facing cells with a hotspot between them."""
    cells = [make_cell("c1"), make_cell("c2", site_pos=(500.0, 0.0, 25.0),
                                        azimuth_deg=180.0)]
    clusters = [HotspotCluster((230.0, 60.0), 30.0, 8.0),
                HotspotCluster((270.0, -60.0), 30.0, 8.0)]
    return make_scenario(cells=cells, clusters=clusters, seed=11)


def enumerated_best_power(loop) -> dict:
    """The MIMO command's fields by enumeration: the target's power scored
    one value at a time over 30...53 dBm with the loop's radio maps, latest
    positions and demand cap, and the first maximum kept; {} if the target
    has too few measurements."""
    cells, target = loop.cells(), loop.target_cell()
    columns = loop.warehouse.read("beam-management",
                                  throughput.MEASUREMENT_COLUMNS)
    try:
        maps = throughput.fit_radio_maps(columns, cells, loop.config_log,
                                         loop.scenario.carrier_ghz, target)
    except InsufficientHistory:
        return {}
    latest = columns["t_s"] == columns["t_s"].max()
    positions = np.column_stack([columns["pos_x_m"][latest],
                                 columns["pos_y_m"][latest]])
    cap = throughput.estimate_demand_cap(columns["rate_mbps"])
    powers = [float(p) for p in range(30, 54)]
    scores = [throughput._candidate_throughputs(
                  cells, maps, positions, loop.scenario.bandwidth_mhz,
                  loop.scenario.carrier_ghz, target, [{"tx_power_dbm": p}],
                  cap)[0]
              for p in powers]
    return {"tx_power_dbm": powers[scores.index(max(scores))]}


class TestCommands:
    def test_out_of_range_field(self):
        sc = make_scenario()
        with pytest.raises(ValidationError, match="tilt_deg"):
            validate_command(Command("c1", {"tilt_deg": 20.0}, "t", 0), sc)

    def test_non_actuatable_field(self):
        sc = make_scenario()
        with pytest.raises(ValidationError, match="site_pos"):
            validate_command(Command("c1", {"site_pos": (1, 1, 1)}, "t", 0), sc)

    def test_empty_delta_ok(self):
        validate_command(Command("c1", {}, "t", 0), make_scenario())

    def test_boundary_power_ok(self):
        validate_command(Command("c1", {"tx_power_dbm": 53.0}, "t", 0),
                         make_scenario())

    def test_monotone_command_ids(self):
        log = CommandLog()
        ids = [log.record(Command("c1", {}, "t", i)).command_id
               for i in range(5)]
        assert ids == [0, 1, 2, 3, 4]


class TestRollbackRule:
    def test_equal_accepted(self):
        assert rollback_if_worse(snap(100.0), snap(100.0)) == "accepted"

    def test_within_tolerance_accepted(self):
        assert rollback_if_worse(snap(100.0), snap(99.01)) == "accepted"

    def test_regression_rolled_back(self):
        assert rollback_if_worse(snap(100.0), snap(90.0)) == "rolled_back"

    def test_negative_objectives(self):
        # identical negative objectives must not trip the rule
        assert rollback_if_worse(snap(-100.0), snap(-100.0)) == "accepted"
        assert rollback_if_worse(snap(-100.0), snap(-100.9)) == "accepted"
        assert rollback_if_worse(snap(-100.0), snap(-102.0)) == "rolled_back"


class TestEpoch:
    def test_stage_ordering_sense_before_optimize(self, monkeypatch):
        seen = {}

        def optimizer(loop, before):
            seen["rows"] = loop.warehouse.row_count("beam-management")
            seen["objective"] = before.objective
            return noop_optimizer(loop, before)

        monkeypatch.setitem(USE_CASES, "throughput", Stub(optimizer))
        loop = ClosedLoop(make_scenario(), "throughput", seed=0)
        loop.run_epoch()
        assert seen["rows"] > 0
        assert seen["objective"] > 0.0

    def test_noop_command_accepted_and_config_unchanged(self, monkeypatch):
        sc = make_scenario()
        monkeypatch.setitem(USE_CASES, "throughput", Stub())
        loop = ClosedLoop(sc, "throughput", seed=1)
        report = loop.run(3)
        assert all(e["decision"] == "accepted" for e in report.entries)
        assert report.final_config == [c.to_dict() for c in sc.cells]

    @pytest.mark.parametrize("decision", ["accepted", "rolled_back"])
    def test_noop_epoch_records_no_config_snapshot(self, monkeypatch,
                                                    decision):
        # a no-op changes no config, so neither deploying nor rolling it
        # back snapshots or copies the scenario
        monkeypatch.setitem(USE_CASES, "throughput",
                            Stub(decision=decision))
        loop = ClosedLoop(make_scenario(), "throughput", seed=1)
        scenario, snapshots = loop.scenario, len(loop.config_log._entries)
        loop.run_epoch()
        assert loop.entries[0]["decision"] == decision
        assert len(loop.config_log._entries) == snapshots
        assert loop.scenario is scenario

    def test_forced_regression_rolls_back_and_restores(self, monkeypatch):
        # coverage-limited fixture: dropping power far below need regresses
        cluster = HotspotCluster(center=(900.0, 0.0), std_m=30.0,
                                 mean_users=10.0, demand_mbps=100.0)
        sc = make_scenario(clusters=[cluster], shadow_sigma_db=0.0)

        def bad_optimizer(loop, before):
            return Command("c1", {"tx_power_dbm": 30.0}, "stub", loop.epoch)

        monkeypatch.setitem(USE_CASES, "throughput", Stub(bad_optimizer))
        loop = ClosedLoop(sc, "throughput", seed=2)
        _, before, after = loop.run_epoch()
        assert after.objective < before.objective
        assert loop.entries[0]["decision"] == "rolled_back"
        assert loop.scenario.cells[0].to_dict() == sc.cells[0].to_dict()

    def test_epoch_count_and_report_shape(self):
        report = run_closed_loop(make_scenario(), "throughput", epochs=1,
                                 seed=3)
        assert len(report.entries) == 1
        e = report.entries[0]
        assert set(e) == {"epoch", "before", "command", "after", "decision"}
        roundtrip = LoopReport.from_json(report.to_json())
        assert roundtrip.to_json() == report.to_json()

    @pytest.mark.parametrize("error", [InsufficientHistory, KeyboardInterrupt])
    def test_aborted_run_saves_the_epochs_before_it(self, tmp_path, error,
                                                     monkeypatch):
        def fails_second_epoch(loop, before):
            if loop.epoch == 1:
                raise error("no data")
            return noop_optimizer(loop, before)

        monkeypatch.setitem(USE_CASES, "throughput",
                            Stub(fails_second_epoch))
        loop = ClosedLoop(make_scenario(), "throughput", seed=1)
        path = tmp_path / "report.json"
        with pytest.raises(error):
            loop.run(3, path)
        saved = LoopReport.from_json(path.read_text())
        assert [e["epoch"] for e in saved.entries] == [0]
        assert saved.error == f"{error.__name__}: no data"
        assert saved.to_json() == loop.report.to_json()

    def test_invalid_use_case_and_epochs(self):
        with pytest.raises(ValidationError):
            ClosedLoop(make_scenario(), "bogus")
        with pytest.raises(ValidationError):
            ClosedLoop(make_scenario(), "throughput").run(0)

    def test_monotone_accepted_objectives(self):
        cell = make_cell(azimuth_deg=30.0, tilt_deg=12.0)
        sc = make_scenario(cells=[cell], shadow_sigma_db=4.0)
        report = run_closed_loop(sc, "throughput", epochs=4, seed=4)
        accepted = [e["after"]["objective"] for e in report.entries
                    if e["decision"] == "accepted"]
        for prev, nxt in zip(accepted, accepted[1:]):
            assert nxt >= prev - 0.01 * abs(prev) - 1e-9

    def test_audit_log_complete(self):
        report = run_closed_loop(make_scenario(), "throughput", epochs=3,
                                 seed=5)
        ids = [c["command_id"] for c in report.commands]
        assert ids == sorted(ids) == list(range(len(ids)))
        assert len(report.commands) == len(report.entries)


class TestUseCases:
    def test_throughput_detuned_epoch_improves(self):
        cell = make_cell(azimuth_deg=30.0, tilt_deg=12.0)
        sc = make_scenario(cells=[cell], shadow_sigma_db=4.0)
        loop = ClosedLoop(sc, "throughput", seed=6)
        _, before, after = loop.run_epoch()
        assert after.objective > before.objective

    @pytest.mark.parametrize("use_case", ["throughput", "mimo"])
    @pytest.mark.parametrize("name,noop_epochs", [
        ("toy_two_cell", [0]), ("three_cell_hotspot", []),
        ("diurnal_energy", [0, 1, 2, 3])])
    def test_throughput_loop_goes_on_past_sparse_cells(self, name,
                                                       noop_epochs,
                                                       use_case):
        # each scenario has a cell with fewer than MIN_SAMPLES_PER_CELL
        # usable measurements in an early epoch: as a target it gets a
        # no-op command, otherwise the analytic model alone; the MIMO
        # power search reads the same radio maps
        sc = engine.load_scenario(scenario_path(name))
        report = run_closed_loop(sc, use_case, epochs=6, seed=1)
        assert report.error is None and len(report.entries) == 6
        assert [e["epoch"] for e in report.entries
                if not e["command"]["fields"]] == noop_epochs

    def test_energy_requires_history(self):
        sc = make_scenario(profile=DIURNAL)
        loop = ClosedLoop(sc, "energy", seed=7)
        with pytest.raises(InsufficientHistory):
            loop.run_epoch()
        # the partial report records the aborted state
        with pytest.raises(InsufficientHistory):
            loop.run(1)
        assert loop.report.error is not None

    def test_energy_loop_saves_at_night(self):
        sc = make_scenario(profile=DIURNAL, seed=5)
        report = run_closed_loop(sc, "energy", epochs=3, seed=8)
        fields = report.entries[0]["command"]["fields"]
        # warm-up ends at midnight: the first command must shut levers down
        assert fields.get("channel_fraction") == 0.5 \
            or fields.get("symbol_fraction") == 0.5

    def test_mimo_loop_runs(self):
        report = run_closed_loop(two_cell_scenario(), "mimo", epochs=2,
                                 seed=9)
        assert len(report.entries) == 2
        for e in report.entries:
            if e["command"]["fields"]:
                assert 30.0 <= e["command"]["fields"]["tx_power_dbm"] <= 53.0

    def test_mimo_epoch_deploys_the_enumerated_best_power(self,
                                                          monkeypatch):
        expected = []

        class Oracle(Mimo):
            def optimize(self, loop, before):
                expected.append(enumerated_best_power(loop))
                return super().optimize(loop, before)

        monkeypatch.setitem(USE_CASES, "mimo", Oracle())
        report = ClosedLoop(two_cell_scenario(), "mimo", seed=1).run(4)
        assert [e["command"]["fields"] for e in report.entries] == expected
        assert sum(1 for fields in expected if fields) >= 2

    def test_interference_loop_with_pretrained_agents(self):
        report = run_closed_loop(interference_scenario(), "interference",
                                 epochs=2, seed=10)
        assert len(report.entries) == 2
        for e in report.entries:
            f = e["command"]["fields"]
            assert set(f) == {"pattern_id", "cio_db"}


class TestInterferencePredict:
    def test_scores_are_the_targets_row_of_the_stacked_agents(self):
        sc = load_bundled("three_cell_hotspot")
        ids = [c.cell_id for c in sc.cells]
        allowed = {ids[1]: [1, 4, 7, 10]}
        agents, _ = dqn_train(sc, 2, DqnConfig(episode_len=20), allowed,
                              seed=3)
        loop = ClosedLoop(sc, "interference", models={"dqn_agents": agents})
        before = loop.snapshot(*loop._sense_window())
        beam = loop.warehouse.read(SUBJECT_BEAM,
                                   ("cell_id", "pos_x_m", "pos_y_m"),
                                   before.t0_s, before.t1_s)
        pos = np.column_stack([beam["pos_x_m"], beam["pos_y_m"]])
        case = USE_CASES["interference"]
        for j, target in enumerate(ids):
            # a lone network holding row j of the stacked weights
            lone = Mlp([obs_dim(len(ids)), *HIDDEN, N_ACTIONS])
            lone.weights = [W[j] for W in agents.q.weights]
            lone.biases = [b[j] for b in agents.q.biases]
            mask = np.full(N_ACTIONS, -np.inf)
            mask[list(allowed.get(target, range(N_ACTIONS)))] = 0.0
            obs = observe(loop.scenario, j, beam["cell_id"], pos)
            expected = lone.predict(obs[None])[0] + mask
            candidates = case.candidates(loop, loop.scenario.cell(target))
            scores = case.predict(loop, target, candidates, before)
            assert np.array_equal(scores, expected)
        # no agent for the target, or no agents: no score
        assert case.predict(loop, "c9", candidates, before) == []
        loop.models = {}
        assert case.predict(loop, ids[0], candidates, before) == []


class Scored(UseCase):
    """A use case whose candidates and predictions are given."""

    def __init__(self, fields: list, scores: list):
        self.fields, self.scores = fields, scores

    def candidates(self, loop, cell):
        return self.fields

    def predict(self, loop, target, candidates, before):
        assert candidates == self.fields
        return self.scores


# few values, so that ties are common
SCORES = st.sampled_from([-np.inf, -2.5, -1.0, 0.0, 1.0, 3.0]) \
    | st.floats(-1e6, 1e6)


class TestDecisionRule:
    """`UseCase.optimize`, the one decision of every use case."""

    @settings(max_examples=300, deadline=None)
    @given(scores=st.lists(SCORES, min_size=1, max_size=12))
    def test_deploys_the_first_maximum(self, scores):
        fields = [{"tilt_deg": float(i), "cio_db": -float(i)}
                  for i in range(len(scores))]
        cmd = Scored(fields, scores).optimize(
            stub_loop(make_scenario(), "stub"), None)
        first_best = next(i for i, s in enumerate(scores)
                          if s == max(scores))
        assert (cmd.cell_id, cmd.issued_by) == ("c1", "stub")
        assert cmd.fields == fields[first_best]

    @given(scores=st.lists(SCORES, max_size=3))
    def test_no_candidate_or_no_score_is_a_noop(self, scores):
        loop = stub_loop(make_scenario())
        assert Scored([], scores).optimize(loop, None).is_noop()
        assert Scored([{"tilt_deg": 4.0}], []).optimize(loop, None).is_noop()


def energy_snap(tput_mbps, users, rbur, cell):
    """One window of cell c1 at this load, burning what `cell` burns."""
    energy_wh = energy_step(cell, rbur, 3600.0)[1]
    per_cell = {"c1": {"throughput_mbps": tput_mbps, "num_users": users,
                       "rbur": rbur, "energy_wh": energy_wh}}
    return KpiSnapshot(0.0, 3600.0, per_cell, -energy_wh)


class TestEnergyDecide:
    """Each of Energy.decide's rules on hand-built snapshots, where each
    of the other rules would decide the other way."""

    FULL = make_cell()
    ESS = make_cell(symbol_fraction=0.5)  # a shutdown: symbols switched off
    ECS = make_cell(channel_fraction=0.5)  # half the channels switched off

    def decide(self, prior, deployed, before, after):
        loop = SimpleNamespace(scenario=make_scenario(cells=[deployed]),
                               window_len_s=3600.0)
        return Energy().decide(loop, before, after, {"c1": prior})

    def test_qos_guard_rolls_back_a_per_user_drop(self):
        # energy fell at equal load, but each user gets 2% less
        before = energy_snap(100.0, 10, 0.4, self.FULL)
        after = energy_snap(98.0, 10, 0.4, self.ECS)
        assert self.decide(self.FULL, self.ECS, before, after) \
            == "rolled_back"
        # the guard is per user: 10% less throughput for 10% fewer users
        after = energy_snap(90.0, 9, 0.4, self.ECS)
        assert self.decide(self.FULL, self.ECS, before, after) == "accepted"

    def test_qos_guard_skips_a_command_that_keeps_capacity(self):
        # ESS keeps full capacity, so it cannot shed traffic: a per-user
        # drop is the two windows' different users, and energy decides
        before = energy_snap(100.0, 10, 0.4, self.FULL)
        after = energy_snap(98.0, 10, 0.4, self.ESS)
        assert self.decide(self.FULL, self.ESS, before, after) == "accepted"

    def test_capacity_restoring_command_accepted_though_energy_rose(self):
        half = make_cell(channel_fraction=0.5)
        before = energy_snap(100.0, 10, 0.4, half)
        after = energy_snap(100.0, 10, 0.4, self.FULL)
        assert after.objective < before.objective  # more energy spent
        assert self.decide(half, self.FULL, before, after) == "accepted"

    def test_dropping_ess_restores_no_capacity(self):
        # ESS keeps full capacity, so switching it off is judged on energy
        before = energy_snap(100.0, 10, 0.4, self.ESS)
        after = energy_snap(100.0, 10, 0.4, self.FULL)
        assert self.decide(self.ESS, self.FULL, before, after) \
            == "rolled_back"

    def test_counterfactual_accepts_a_saving_at_equal_load(self):
        # the verify window is busier than the baseline one, so it burns
        # more than the baseline did, but less than the prior config
        # would have burned at its load
        before = energy_snap(100.0, 10, 0.2, self.FULL)
        after = energy_snap(100.0, 10, 0.6, self.ESS)
        assert rollback_if_worse(before, after) == "rolled_back"
        assert self.decide(self.FULL, self.ESS, before, after) == "accepted"


class TestTempDir:
    def test_run_without_workdir_leaves_no_temp_dir(self, tmp_path,
                                                    monkeypatch):
        """Sensing stays in memory: a loop creates no file or directory."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        loop = ClosedLoop(make_scenario(), "mimo")
        loop.run_epoch()
        assert list(tmp_path.iterdir()) == []  # not even while it runs
        run_closed_loop(make_scenario(), "mimo", epochs=1)
        with pytest.raises(InsufficientHistory):  # no load history yet
            ClosedLoop(make_scenario(profile=DIURNAL), "energy").run(1)
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    @pytest.mark.parametrize("use_case", list(USE_CASES))
    def test_replay_byte_identical(self, use_case):
        cell = make_cell(azimuth_deg=30.0, tilt_deg=12.0)
        sc = {"throughput": make_scenario(cells=[cell], shadow_sigma_db=4.0),
              "mimo": two_cell_scenario(),
              "interference": interference_scenario(),
              "energy": make_scenario(profile=DIURNAL, seed=5)}[use_case]
        a = run_closed_loop(copy.deepcopy(sc), use_case, epochs=2, seed=12)
        b = run_closed_loop(copy.deepcopy(sc), use_case, epochs=2, seed=12)
        assert a.to_json() == b.to_json()
        assert any(e["command"]["fields"] for e in a.entries)
