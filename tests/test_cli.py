import csv
import hashlib
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from ranopt.acquisition.pipeline import ENVELOPE
from ranopt.cli import build_parser, main
from ranopt.errors import InsufficientHistory
from ranopt.loop import USE_CASES, Command, LoopReport
from ranopt.loop.usecases import Throughput
from ranopt.scenarios import scenario_path
from ranopt.simcore import KpiRecord, MeasurementRecord, engine
from ranopt.warehouse.query import QueryTask

from conftest import make_scenario, two_cell_scenario

README = Path(__file__).resolve().parents[1] / "README.md"
REPORT = LoopReport("energy", 0, 3600.0).to_dict()  # no epochs


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make_scenario(shadow_sigma_db=4.0).to_dict()))
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


def write_faulty_drops(drops: Path, scenario) -> None:
    """Seeded drop files: four simulated windows per header, with every
    fault kind, re-sent and bad-sequence lines, quoted user ids, stored
    hashes, late, too-late, far-future and resumed rows, rows without the
    envelope, a kbps header, a TXT file and a file with a bad header."""
    rng = np.random.default_rng(20261019)
    drops.mkdir()
    ids = {"m": 1000, "k": 1000}  # clear of the rows without envelope
    sent = []

    def faulty(kind, header, payload):
        col = {name: i for i, name in enumerate(header)}
        numeric = [c for c in header if c not in
                   ("user_id", "cell_id", "signal_type")]
        out = list(payload)
        fault = rng.integers(30)
        if fault == 0:
            out[col[numeric[rng.integers(len(numeric))]]] = ""
        elif fault == 1:
            out[col[numeric[rng.integers(len(numeric))]]] = "loud"
        elif fault == 2:
            out[col[numeric[rng.integers(len(numeric))]]] = str(
                rng.choice(["nan", "inf", "-Infinity", "1e999"]))
        elif fault == 3:
            out[col["beam_id" if kind == "m" else "num_users"]] = "1e30"
        elif fault == 4 and kind == "m":
            out[col[str(rng.choice(["rsrp_dbm", "sinr_db", header[7]]))]] = \
                str(rng.choice(["-400.0", "99.0", "-1.5"]))
        elif fault == 4:
            out[col["throughput_mbps"]] = "-5.0"
        elif fault == 5:
            out[col["cell_id"]] = "ghost"
        elif fault == 6 and kind == "m":
            out[col["user_id"]] = str(rng.choice(
                ['a,"b"', "x\ny", "h0123456789abcdef", " pad "]))
        return out

    def write(name, kind, header, rows_t, enveloped=True, delim=","):
        source = "drive-test" if kind == "m" else "network-management"
        lines = [list(ENVELOPE + header) if enveloped else list(header)]
        for payload in rows_t:
            cells = faulty(kind, header, [str(v) for v in payload])
            if enveloped:
                seq = str(ids[kind])
                ids[kind] += 1
                draw = rng.integers(20)
                if draw == 0:
                    seq = "x"
                elif draw == 1 and sent:
                    lines.append(sent[rng.integers(len(sent))])
                cells = [source, seq] + cells
                sent.append(cells)
            if rng.integers(25) == 0:
                cells = cells[:-1]
            lines.append(cells)
        with open(drops / name, "w", newline="") as f:
            csv.writer(f, delimiter=delim).writerows(lines)

    week_s = 7 * 24 * 3600.0
    times = (0.0, 3600.0, 7200.0)
    for w, t in enumerate(times):
        meas, kpis = engine.step(scenario, 3600.0, t)
        write(f"{w}-m.csv", "m", MeasurementRecord.CSV_HEADER,
              [m.csv_row() for m in meas])
        write(f"{w}-k.txt", "k", KpiRecord.CSV_HEADER,
              [k.csv_row() for k in kpis], delim="\t")
    kbps = tuple("rate_kbps" if c == "rate_mbps" else c
                 for c in MeasurementRecord.CSV_HEADER)
    meas, kpis = engine.step(scenario, 3600.0, 10800.0)
    write("3-m.csv", "m", kbps, [m.csv_row()[:7] + (m.rate_mbps * 1e3,)
                                 + m.csv_row()[8:] for m in meas])
    write("3-k.csv", "k", KpiRecord.CSV_HEADER, [k.csv_row() for k in kpis],
          enveloped=False)
    # late into hour 0, then far ahead, behind retention and resumed
    meas, kpis = engine.step(scenario, 3600.0, 0.0)
    shifted = [(t,) + m.csv_row()[1:] for t, m in zip(
        (10.0, 20.0, 3 * week_s, 3 * week_s + 60.0, -2 * week_s,
         3 * week_s + 120.0, 30.0) * 4, meas)]
    write("4-m.csv", "m", MeasurementRecord.CSV_HEADER, shifted,
          enveloped=False)
    write("5-k.csv", "k", KpiRecord.CSV_HEADER,
          [(k.cell_id, 3 * week_s + 3600.0) + k.csv_row()[2:]
           for k in kpis])
    (drops / "6-bad.csv").write_text("source_tag,seq_no,who,what\n1,2,3,4\n")


class TestIngestGolden:
    # sha256 of the printed counters and every exported file, recorded
    # before ingest checked and loaded batches by columns
    DIGEST = "f592e56b920c2760eca6463dcf9d747154370f0972883da5c32e1647d4ebcabb"

    def test_export_digest_of_faulty_drops(self, tmp_path, capsys):
        scenario = two_cell_scenario()
        scenario.shadow_sigma_db = 4.0
        for cluster in scenario.clusters:
            cluster.mean_users = 30.0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario.to_dict()))
        drops, export = tmp_path / "drops", tmp_path / "export"
        write_faulty_drops(drops, scenario)
        assert run(["ingest", "--watch", str(drops), "--scenario", str(path),
                    "--export", str(export)]) == 0
        out = capsys.readouterr().out.replace(str(export), "EXPORT")
        h = hashlib.sha256(out.encode())
        for f in sorted(export.iterdir()):
            h.update(f.name.encode() + b"\0" + f.read_bytes())
        print(out)
        assert h.hexdigest() == self.DIGEST


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

    @pytest.mark.parametrize("task", [
        {"aggregates": [["mean", "no_such_col"]]},
        {"aggregates": [["mean", "cell_id"]]},
        {"t0": "abc"},
        {"t1": [1]},
        {"t0": float("nan")},
        {"filters": [["rbur", "<", "x"]]},
        {"filters": [["rbur", "<", None]]},
        {"filters": [["cell_id", "<", 3]]},
    ], ids=["unknown-column", "mean-of-strings", "t0-text", "t1-list",
            "t0-nan", "number-column-text", "number-column-null",
            "string-column-number"])
    def test_bad_task_is_pipeline_error(self, task, scenario_file, tmp_path,
                                        capsys):
        drops = tmp_path / "drops"
        run(["simulate", "--scenario", scenario_file, "--windows", "1",
             "--out", str(drops)])
        path = tmp_path / "task.json"
        path.write_text(json.dumps({"subject": "energy",
                                    "aggregates": [["count", "*"]], **task}))
        capsys.readouterr()
        assert run(["warehouse", "query", "--task", str(path), "--in",
                    str(drops), "--scenario", scenario_file,
                    "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_optimize_is_no_command(capsys):
    # the models the loop trains offline are not written out
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["optimize", "--usecase", "interference",
                                   "--scenario", "s.json", "--out", "m.json"])
    assert exc.value.code == 2
    assert "invalid choice: 'optimize'" in capsys.readouterr().err


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


class TestMalformedInput:
    def test_repeated_cell_id_fails_the_loop(self, tmp_path, capsys):
        scenario = json.loads(scenario_path("two_cell_detuned").read_text())
        scenario["cells"][1]["cell_id"] = scenario["cells"][0]["cell_id"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        report = tmp_path / "report.json"
        assert run(["loop", "--usecase", "throughput", "--scenario",
                    str(path), "--epochs", "2", "--report",
                    str(report)]) == 1
        assert capsys.readouterr().err == "error: cell_id 'c1' repeats\n"
        assert not report.exists()

    @pytest.mark.parametrize("argv", [
        "ingest --socket localhost --scenario {good}",
        "ingest --socket localhost:http --scenario {good}",
        "ingest --socket localhost:65536 --scenario {good}",
        "simulate --scenario {not_json} --windows 1 --out {tmp}/o",
        "loop --usecase throughput --scenario {no_cells} --epochs 1"
        " --report {tmp}/r.json",
        "ingest --watch {tmp} --scenario {cell_without_id}",
        "warehouse query --task {not_json} --in {tmp} --scenario {good}"
        " --out {tmp}/r.csv",
        "warehouse query --task {no_subject} --in {tmp} --scenario {good}"
        " --out {tmp}/r.csv",
        "report --from {report_not_json}",
        "report --from {empty}",
        "report --from {entries_not_list}",
        "report --from {objective_not_number}",
        "ingest --watch {tmp}/missing --scenario {good}",
        "ingest --watch {good} --scenario {good}",
        "warehouse query --task {count_task} --in {tmp}/missing"
        " --scenario {good} --out {tmp}/r.csv",
        "warehouse query --task {count_task} --in {good} --scenario {good}"
        " --out {tmp}/r.csv",
    ], ids=["socket-no-port", "socket-port-not-int", "socket-port-too-big",
            "scenario-not-json", "scenario-no-cells",
            "scenario-cell-no-id", "task-not-json", "task-no-subject",
            "report-not-json", "report-empty", "report-entries-not-list",
            "report-objective-not-number", "watch-dir-missing",
            "watch-dir-is-file", "query-dir-missing", "query-dir-is-file"])
    def test_is_one_error_line_and_exit_1(self, argv, scenario_file,
                                         tmp_path, capsys):
        good = json.loads(Path(scenario_file).read_text())
        files = {"not_json": "{cells: [", "no_cells": {
            k: v for k, v in good.items() if k != "cells"},
            "cell_without_id": {**good, "cells": [
                {k: v for k, v in good["cells"][0].items()
                 if k != "cell_id"}]},
            "no_subject": {"aggregates": [["count", "*"]]},
            "count_task": {"subject": "energy",
                           "aggregates": [["count", "*"]]},
            "report_not_json": "{bad", "empty": {},
            "entries_not_list": {**REPORT, "entries": {}},
            "objective_not_number": {**REPORT, "entries": [{
                "epoch": 0, "decision": "accepted",
                "command": {"cell_id": "c1", "fields": {}},
                "before": {"objective": None},
                "after": {"objective": 1.0}}]}}
        paths = {"good": scenario_file, "tmp": str(tmp_path)}
        for name, content in files.items():
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(
                content if isinstance(content, str) else json.dumps(content))
        assert run(shlex.split(argv.format(**paths))) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_readme_cli_examples_parse():
    block = README.read_text().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("ranopt ")]
    assert {argv[1] for argv in commands} == {
        "simulate", "ingest", "warehouse", "loop", "report"}
    for argv in commands:
        build_parser().parse_args(argv[1:])  # exits on an unknown option
