"""What a fresh `ranopt` process loads.

Only the radio maps (throughput and MIMO) use scipy, through the GPR's
Cholesky factor, and they import it at their first fit.  Every other
command and use case must start without it: scipy.linalg alone more than
doubles a process's start-up.  Each test runs its commands in a new
interpreter, since this test process has long since loaded scipy.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from ranopt.cli import main
from ranopt.scenarios import scenario_path
from ranopt.warehouse.query import QueryTask

SRC = Path(__file__).resolve().parents[1] / "src"

# runs argv lists through ranopt.cli.main in order, then prints the
# scipy modules loaded, one JSON list per moment: before the first command
# and after the last
SCRIPT = """
import json, sys
import ranopt.cli

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

before = scipy_modules()
for argv in json.loads(sys.argv[1]):
    assert ranopt.cli.main(argv) == 0, argv
print(json.dumps([before, scipy_modules()]))
"""


def run_fresh(commands) -> tuple[list[str], list[str]]:
    """(scipy modules loaded after `import ranopt.cli`, scipy modules
    loaded after the commands) of a new interpreter running commands."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return tuple(json.loads(out.stdout.splitlines()[-1]))


def test_commands_without_a_radio_map_never_load_scipy(tmp_path):
    scenario = str(scenario_path("two_cell_detuned"))
    drops, task = tmp_path / "drops", tmp_path / "task.json"
    task.write_text(QueryTask(
        subject="throughput", group_by=["cell_id"],
        aggregates=[("mean", "throughput_mbps")]).to_json())
    before, after = run_fresh([
        ["simulate", "--scenario", scenario, "--windows", "2",
         "--seed", "1", "--out", str(drops)],
        ["warehouse", "query", "--task", str(task), "--in", str(drops),
         "--scenario", scenario, "--out", str(tmp_path / "result.csv")],
        ["loop", "--usecase", "energy", "--scenario", scenario,
         "--epochs", "2", "--seed", "1",
         "--report", str(tmp_path / "energy.json")],
    ])
    assert before == []
    assert after == []
    # the commands ran: the query read the simulated windows
    assert len((tmp_path / "result.csv").read_text().splitlines()) == 3


def test_throughput_loop_loads_scipy_at_its_first_fit(tmp_path):
    scenario = str(scenario_path("single_cell_detuned"))
    fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"

    def loop(report):
        return ["loop", "--usecase", "throughput", "--scenario", scenario,
                "--epochs", "3", "--seed", "0", "--report", str(report)]

    before, after = run_fresh([loop(fresh)])
    assert main(loop(here)) == 0
    assert fresh.read_bytes() == here.read_bytes()
    assert "scipy.linalg" not in before
    assert "scipy.linalg" in after
