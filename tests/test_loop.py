import copy
import tempfile

import numpy as np
import pytest

from ranopt.errors import InsufficientHistory, ValidationError
from ranopt.loop import (ClosedLoop, Command, CommandLog, LoopReport,
                         rollback_if_worse, run_closed_loop, validate_command)
from ranopt.loop.runner import KpiSnapshot
from ranopt.simcore.types import HotspotCluster

from conftest import make_cell, make_scenario

DIURNAL = [0.1, 0.05, 0.05, 0.05, 0.05, 0.1, 0.3, 0.6, 0.9, 1.0, 1.0, 0.9,
           0.8, 0.8, 0.9, 1.0, 1.0, 0.9, 0.7, 0.5, 0.4, 0.3, 0.2, 0.1]


def snap(objective):
    return KpiSnapshot(0.0, 3600.0, {}, objective)


def noop_optimizer(loop, before):
    return Command(loop.scenario.cells[0].cell_id, {}, "stub", loop.epoch)


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
    def test_stage_ordering_sense_before_optimize(self):
        seen = {}

        def optimizer(loop, before):
            seen["rows"] = loop.warehouse.row_count("beam-management")
            seen["objective"] = before.objective
            return noop_optimizer(loop, before)

        loop = ClosedLoop(make_scenario(), "throughput", seed=0,
                          optimizer_override=optimizer)
        loop.run_epoch()
        assert seen["rows"] > 0
        assert seen["objective"] > 0.0

    def test_noop_command_accepted_and_config_unchanged(self):
        sc = make_scenario()
        loop = ClosedLoop(sc, "throughput", seed=1,
                          optimizer_override=noop_optimizer)
        report = loop.run(3)
        assert all(e["decision"] == "accepted" for e in report.entries)
        assert report.final_config == [c.to_dict() for c in sc.cells]

    def test_forced_regression_rolls_back_and_restores(self):
        # coverage-limited fixture: dropping power far below need regresses
        cluster = HotspotCluster(center=(900.0, 0.0), std_m=30.0,
                                 mean_users=10.0, demand_mbps=100.0)
        sc = make_scenario(clusters=[cluster], shadow_sigma_db=0.0)

        def bad_optimizer(loop, before):
            return Command("c1", {"tx_power_dbm": 30.0}, "stub", loop.epoch)

        loop = ClosedLoop(sc, "throughput", seed=2,
                          optimizer_override=bad_optimizer)
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
        cells = [make_cell("c1"), make_cell("c2", site_pos=(500.0, 0.0, 25.0),
                                            azimuth_deg=180.0)]
        clusters = [HotspotCluster((200.0, 50.0), 30.0, 6.0),
                    HotspotCluster((300.0, -50.0), 30.0, 6.0)]
        sc = make_scenario(cells=cells, clusters=clusters)
        report = run_closed_loop(sc, "mimo", epochs=2, seed=9)
        assert len(report.entries) == 2
        for e in report.entries:
            if e["command"]["fields"]:
                assert 30.0 <= e["command"]["fields"]["tx_power_dbm"] <= 53.0

    def test_interference_loop_with_pretrained_agents(self):
        cells = [make_cell("c1"), make_cell("c2", site_pos=(500.0, 0.0, 25.0),
                                            azimuth_deg=180.0)]
        clusters = [HotspotCluster((230.0, 60.0), 30.0, 8.0),
                    HotspotCluster((270.0, -60.0), 30.0, 8.0)]
        sc = make_scenario(cells=cells, clusters=clusters, seed=11)
        report = run_closed_loop(sc, "interference", epochs=2, seed=10)
        assert len(report.entries) == 2
        for e in report.entries:
            f = e["command"]["fields"]
            assert set(f) == {"pattern_id", "cio_db"}


class TestTempDir:
    def test_run_without_workdir_leaves_no_temp_dir(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        run_closed_loop(make_scenario(), "mimo", epochs=1, workdir=None)
        few_users = make_scenario(clusters=[HotspotCluster(
            center=(250.0, 0.0), std_m=40.0, mean_users=2.0)])
        with pytest.raises(InsufficientHistory):
            run_closed_loop(few_users, "throughput", epochs=1, workdir=None)
        assert not list(tmp_path.glob("ranopt-loop-*"))


class TestDeterminism:
    def test_replay_byte_identical(self):
        cell = make_cell(azimuth_deg=30.0, tilt_deg=12.0)
        sc = make_scenario(cells=[cell], shadow_sigma_db=4.0)
        a = run_closed_loop(copy.deepcopy(sc), "throughput", epochs=2, seed=12)
        b = run_closed_loop(copy.deepcopy(sc), "throughput", epochs=2, seed=12)
        assert a.to_json() == b.to_json()
