"""The three workloads, each a closed loop with one caller.

Every workload has a ``setup`` (what ``setup_s`` times, in a fresh
interpreter) and a ``run_pass`` that does one full pass of the workload
and returns its timing samples, its outputs (compared across passes and
between traced and untraced passes) and the errors its oracles found.
"""
from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from pathlib import Path

from ranopt.ai.dqn import DqnConfig, dqn_train
from ranopt.loop import ClosedLoop, LoopReport
from ranopt.scenarios import load_bundled

import telemetry

THROUGHPUT_EPOCHS = 10
INTERFERENCE_EPOCHS = 48
# the offline phase prepare_models runs before an interference loop
DQN_EPISODES = 12
DQN_EPISODE_LEN = 25
# ground truth is read over the acceptance tests' evaluation windows, the
# first of the windows each ground-truth slice runs
EVAL_WINDOWS = 3
SLICE_WINDOWS = 8


class Phase:
    """What the workload is doing now, for naming a hang."""

    def __init__(self):
        self.current = "start"

    def set(self, name: str) -> None:
        self.current = name


@dataclass
class PassResult:
    epoch_s: list = field(default_factory=list)
    loop_s: float = 0.0
    windows: int = 0  # simulator windows the driving loop advanced
    train_steps: int = 0
    train_s: float = 0.0
    tput_ratio: float = 1.0
    sim_window_s: list = field(default_factory=list)
    ingest_lines: int = 0
    ingest_s: float = 0.0
    query_ms: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    attempted: int = 0
    errors: list = field(default_factory=list)

    def add_slice(self, s: telemetry.SliceResult) -> None:
        self.sim_window_s += s.sim_window_s
        self.ingest_lines += s.ingest_lines
        self.ingest_s += s.ingest_s
        self.query_ms += s.query_ms
        self.outputs += s.outputs
        self.attempted += s.attempted
        self.errors += s.errors


def loop_report(loop: ClosedLoop) -> str:
    """The report ClosedLoop.run would return after these epochs."""
    return LoopReport(loop.use_case, loop.seed, loop.window_len_s,
                      entries=loop.entries,
                      final_config=[c.to_dict() for c in loop.scenario.cells],
                      commands=loop.command_log.to_list()).to_json()


def _mean(values) -> float:
    return sum(values) / len(values)


class LoopWorkload:
    """A ClosedLoop on a bundled scenario, between two ground-truth slices.

    The slices run the telemetry path on the initial and on the final
    config over the evaluation windows; their KPI throughput is the
    simulator's ground truth for ``tput_gain_pct``.
    """

    scenario_name = ""
    use_case = ""
    epochs = 0
    optimizes_throughput = False

    def setup(self, seed: int, workdir: Path):
        ClosedLoop(load_bundled(self.scenario_name), self.use_case,
                   seed=seed, workdir=workdir)

    def train(self, scenario, seed, out: PassResult, phase) -> dict:
        return {}

    def run_pass(self, seed: int, pass_dir: Path, tracer, phase
                 ) -> PassResult:
        out = PassResult()
        scenario = load_bundled(self.scenario_name)
        initial = telemetry.run_slice(scenario, SLICE_WINDOWS,
                                      pass_dir / "initial", seed, tracer,
                                      phase)
        out.add_slice(initial)
        models = self.train(scenario, seed, out, phase)
        loop = ClosedLoop(scenario, self.use_case, seed=seed, models=models,
                          workdir=pass_dir / "loop")
        start = time.perf_counter()
        for epoch in range(self.epochs):
            phase.set(f"loop epoch {epoch}")
            a = time.perf_counter()
            loop.run_epoch()
            out.epoch_s.append(time.perf_counter() - a)
        out.loop_s = time.perf_counter() - start
        out.windows = 2 * self.epochs  # sense and verify windows
        out.attempted += self.epochs
        out.outputs.append(loop_report(loop))
        final = telemetry.run_slice(loop.scenario, SLICE_WINDOWS,
                                    pass_dir / "final", seed, tracer, phase)
        out.add_slice(final)
        if self.optimizes_throughput:
            out.tput_ratio = (_mean(final.kpi_throughput[:EVAL_WINDOWS])
                              / _mean(initial.kpi_throughput[:EVAL_WINDOWS]))
        return out


class ThroughputLoop(LoopWorkload):
    scenario_name = "two_cell_detuned"
    use_case = "throughput"
    epochs = THROUGHPUT_EPOCHS
    optimizes_throughput = True


class InterferenceLoop(LoopWorkload):
    scenario_name = "three_cell_hotspot"
    use_case = "interference"
    epochs = INTERFERENCE_EPOCHS

    def train(self, scenario, seed, out: PassResult, phase) -> dict:
        """What prepare_models does, with the step count in hand."""
        phase.set("dqn_train")
        a = time.perf_counter()
        agents, curve = dqn_train(copy.deepcopy(scenario), DQN_EPISODES,
                                  DqnConfig(episode_len=DQN_EPISODE_LEN),
                                  seed=seed)
        out.train_s = time.perf_counter() - a
        out.train_steps = DQN_EPISODES * DQN_EPISODE_LEN
        out.attempted += 1
        out.outputs.append(repr(curve))
        return {"dqn_agents": agents, "dqn_curve": curve}


class TelemetryDay:
    """A seeded 21-cell hex network through one day of hourly windows."""

    windows = 24

    def setup(self, seed: int, workdir: Path):
        scenario = telemetry.hex_network(seed)
        _, pipeline = telemetry.new_store(
            [c.cell_id for c in scenario.cells], f"bench-{seed}".encode())
        pipeline.start()
        pipeline.stop()

    def run_pass(self, seed: int, pass_dir: Path, tracer, phase
                 ) -> PassResult:
        out = PassResult()
        scenario = telemetry.hex_network(seed)
        day = telemetry.run_slice(scenario, self.windows, pass_dir / "day",
                                  seed, tracer, phase)
        out.add_slice(day)
        out.epoch_s = list(day.window_s)
        out.loop_s = sum(day.window_s)
        out.windows = self.windows
        # nothing is actuated, so the final config is the initial one
        out.tput_ratio = 1.0
        return out


WORKLOADS = {
    "loop-throughput": ThroughputLoop(),
    "telemetry-day": TelemetryDay(),
    "loop-interference": InterferenceLoop(),
}
