import json
import shlex
from pathlib import Path

import pytest

from ranopt.cli import build_parser, main
from ranopt.errors import InsufficientHistory
from ranopt.loop import USE_CASES, Command
from ranopt.loop.usecases import Throughput
from ranopt.scenarios import scenario_path
from ranopt.simcore import engine
from ranopt.warehouse.query import QueryTask

from conftest import MIMO_SEED, make_scenario, two_cell_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    engine.save_scenario(make_scenario(shadow_sigma_db=4.0), path)
    return str(path)


def run(argv):
    return main(argv)


class TestSimulate:
    def test_writes_windows(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "drops"
        assert run(["simulate", "--scenario", scenario_file, "--windows", "3",
                    "--seed", "1", "--out", str(out)]) == 0
        files = sorted(out.glob("*.csv"))
        # one measurement + one KPI file per window
        assert len(files) == 6

    def test_windows_below_one_is_validation_error(self, scenario_file,
                                                   tmp_path):
        out = tmp_path / "drops"
        assert run(["simulate", "--scenario", scenario_file, "--windows",
                    "-3", "--out", str(out)]) == 1
        assert not out.exists()

    def test_missing_scenario_is_validation_error(self, tmp_path):
        assert run(["simulate", "--scenario", str(tmp_path / "nope.json"),
                    "--windows", "1", "--out", str(tmp_path / "o")]) == 1


class TestIngest:
    def test_watch_directory_and_export(self, scenario_file, tmp_path, capsys):
        drops = tmp_path / "drops"
        run(["simulate", "--scenario", scenario_file, "--windows", "2",
             "--out", str(drops)])
        export = tmp_path / "export"
        assert run(["ingest", "--watch", str(drops), "--scenario",
                    scenario_file, "--export", str(export)]) == 0
        out = capsys.readouterr().out
        counters = json.loads([ln for ln in out.splitlines()
                               if ln.startswith("{")][0])
        assert counters["ingested"] > 0
        assert (export / "beam-management.csv").exists()
        assert (export / "energy.csv").exists()


class TestWarehouseQuery:
    def test_query_roundtrip(self, scenario_file, tmp_path, capsys):
        drops = tmp_path / "drops"
        run(["simulate", "--scenario", scenario_file, "--windows", "2",
             "--out", str(drops)])
        task = tmp_path / "task.json"
        task.write_text(QueryTask(subject="energy", group_by=["cell_id"],
                                  aggregates=[("mean", "power_w")]).to_json())
        out = tmp_path / "result.csv"
        assert run(["warehouse", "query", "--task", str(task), "--in",
                    str(drops), "--scenario", scenario_file,
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "cell_id,mean(power_w)"
        assert len(lines) == 2

    def test_bad_task_is_pipeline_error(self, scenario_file, tmp_path):
        drops = tmp_path / "drops"
        run(["simulate", "--scenario", scenario_file, "--windows", "1",
             "--out", str(drops)])
        task = tmp_path / "task.json"
        task.write_text(json.dumps({"subject": "energy",
                                    "aggregates": [["mean", "no_such_col"]]}))
        assert run(["warehouse", "query", "--task", str(task), "--in",
                    str(drops), "--scenario", scenario_file,
                    "--out", str(tmp_path / "r.csv")]) == 2


class TestOptimize:
    def test_mimo_export_is_the_loops_offline_training(self, tmp_path,
                                                        mimo_models):
        path = tmp_path / "scenario.json"
        engine.save_scenario(two_cell_scenario(), path)
        out = tmp_path / "model.json"
        assert run(["optimize", "--usecase", "mimo", "--scenario", str(path),
                    "--seed", str(MIMO_SEED), "--out", str(out)]) == 0
        expected = {"use_case": "mimo", "seed": MIMO_SEED,
                    "estimator": mimo_models["mimo_estimator"].to_dict(),
                    "policy": mimo_models["mimo_policy"].to_dict(),
                    "rates": mimo_models["mimo_rates"]}
        assert json.loads(out.read_text()) == json.loads(json.dumps(expected))

    def test_one_cell_mimo_export_holds_no_model(self, scenario_file,
                                                  tmp_path):
        # the loop only issues no-ops on one cell, so nothing is trained
        out = tmp_path / "model.json"
        assert run(["optimize", "--usecase", "mimo", "--scenario",
                    scenario_file, "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"use_case": "mimo", "seed": 0}

    def test_interference_export_is_the_loops_offline_training(
            self, scenario_file, tmp_path):
        out = tmp_path / "model.json"
        assert run(["optimize", "--usecase", "interference", "--scenario",
                    scenario_file, "--seed", "2", "--out", str(out)]) == 0
        model = json.loads(out.read_text())
        scenario = engine.load_scenario(scenario_file)
        scenario.seed = 2
        models = USE_CASES["interference"].offline(scenario, 2)
        assert model["learning_curve"] == models["dqn_curve"]
        agents = {cid: a.q.to_dict()
                  for cid, a in models["dqn_agents"].items()}
        assert model["agents"] == json.loads(json.dumps(agents))


class TestLoopAndReport:
    def test_loop_report_and_summaries(self, tmp_path, capsys):
        scenario = str(scenario_path("single_cell_detuned"))
        report = tmp_path / "report.json"
        assert run(["loop", "--usecase", "throughput", "--scenario", scenario,
                    "--epochs", "1", "--seed", "3",
                    "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["use_case"] == "throughput"
        assert len(data["entries"]) == 1
        capsys.readouterr()
        assert run(["report", "--from", str(report), "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "epoch 0" in text
        assert run(["report", "--from", str(report), "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out.splitlines()
        assert csv_out[0].startswith("epoch,decision,cell_id")
        assert len(csv_out) == 2

    def test_aborted_loop_saves_its_partial_report(self, scenario_file,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        # the second epoch's optimizer raises; the first epoch is saved
        class FailsSecondEpoch(Throughput):
            def optimize(self, loop, before):
                if loop.epoch == 1:
                    raise InsufficientHistory("cell c1: 0 usable "
                                              "measurements, need 8")
                return Command("c1", {}, "throughput", loop.epoch)

        monkeypatch.setitem(USE_CASES, "throughput", FailsSecondEpoch())
        report = tmp_path / "report.json"
        assert run(["loop", "--usecase", "throughput", "--scenario",
                    scenario_file, "--epochs", "3", "--report",
                    str(report)]) == 1
        data = json.loads(report.read_text())
        assert [e["epoch"] for e in data["entries"]] == [0]
        assert data["error"] == ("InsufficientHistory: cell c1: 0 usable "
                                 "measurements, need 8")
        capsys.readouterr()
        assert run(["report", "--from", str(report)]) == 0
        assert f"aborted: {data['error']}" in capsys.readouterr().out

    def test_report_missing_file(self, tmp_path):
        assert run(["report", "--from", str(tmp_path / "nope.json")]) == 1


def test_readme_cli_examples_parse():
    block = README.read_text().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("ranopt ")]
    assert {argv[1] for argv in commands} == {
        "simulate", "ingest", "warehouse", "optimize", "loop", "report"}
    for argv in commands:
        build_parser().parse_args(argv[1:])  # exits on an unknown option
