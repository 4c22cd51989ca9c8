"""Closed-loop epochs: sense -> store -> optimize -> deploy -> verify.

Each epoch simulates one sense window, ingests it through the acquisition
pipeline into the warehouse, computes a baseline KPI snapshot from warehouse
scans alone, asks the use case's object (`usecases.py`) for one command,
applies it, then verifies over one more window and rolls the command back
if the use case decides so.  The use cases read their model inputs from
the warehouse as column arrays (`Warehouse.read`), never as rows.  Sensing
stays in memory: the simulator's rows go straight to the pipeline's row
parser, with no file.
"""
from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from pathlib import Path

from ..acquisition.pipeline import AcquisitionPipeline, parse_header
from ..ai.throughput import ConfigLog
from ..errors import ValidationError
from ..simcore import engine
from ..simcore.types import KpiRecord, MeasurementRecord, Scenario
from ..warehouse.store import Warehouse
from ..warehouse.subjects import (SUBJECT_ENERGY, SUBJECT_INTERFERENCE,
                                  SUBJECT_THROUGHPUT, create_bundled_subjects)
from .commands import Command, CommandLog, validate_command
from .usecases import USE_CASES

WINDOW_LEN_S = 3600.0
_SENSE_HEADERS = (parse_header(MeasurementRecord.CSV_HEADER),
                  parse_header(KpiRecord.CSV_HEADER))
# the KPI subjects a snapshot reads, and the fields it takes of each
_SNAPSHOT_FIELDS = ((SUBJECT_THROUGHPUT, ("throughput_mbps", "rbur",
                                          "num_users")),
                    (SUBJECT_INTERFERENCE, ("collision_ratio",)),
                    (SUBJECT_ENERGY, ("power_w", "energy_wh")))


@dataclass
class KpiSnapshot:
    """Per-cell KPI aggregates over one window, from warehouse reads only."""
    t0_s: float
    t1_s: float
    per_cell: dict
    objective: float

    def to_dict(self) -> dict:
        return {"t0_s": self.t0_s, "t1_s": self.t1_s,
                "objective": self.objective,
                "per_cell": {cid: dict(sorted(v.items()))
                             for cid, v in sorted(self.per_cell.items())}}


@dataclass
class LoopReport:
    use_case: str
    seed: int
    window_len_s: float
    entries: list = field(default_factory=list)
    final_config: list = field(default_factory=list)
    commands: list = field(default_factory=list)
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def from_json(cls, s: str) -> "LoopReport":
        d = json.loads(s)
        if not isinstance(d["entries"], list):
            raise TypeError("entries is not a list")
        return cls(use_case=d["use_case"], seed=d["seed"],
                   window_len_s=d["window_len_s"], entries=d["entries"],
                   final_config=d["final_config"], commands=d["commands"],
                   error=d.get("error"))


class ClosedLoop:
    def __init__(self, scenario: Scenario, use_case: str, seed: int = 0,
                 models: dict | None = None, workdir=None):
        if use_case not in USE_CASES:
            raise ValidationError(
                f"unknown use case {use_case!r} (allowed: {tuple(USE_CASES)})")
        self.use_case = use_case
        self.case = USE_CASES[use_case]
        self.seed = int(seed)
        self.window_len_s = WINDOW_LEN_S
        self.scenario = copy.deepcopy(scenario)
        self.models = models or {}
        # workdir is ignored, sensing writes no file; bench/workloads.py passes it
        self.warehouse = Warehouse()
        create_bundled_subjects(self.warehouse)
        self.pipeline = AcquisitionPipeline(
            self.warehouse, known_cells=[c.cell_id for c in self.scenario.cells],
            hash_key=f"loop-{self.seed}".encode())
        self.t = 0.0
        self.epoch = 0
        self.config_log = ConfigLog()
        self.config_log.record(0.0, self.cells())
        self.command_log = CommandLog()
        self.entries: list[dict] = []

    # -- plumbing -------------------------------------------------------
    def cells(self) -> dict:
        return {c.cell_id: c for c in self.scenario.cells}

    def _sense_window(self) -> tuple[float, float]:
        """Stage 1/5: simulate one window and ingest it into the warehouse."""
        meas, kpis = engine.step(self.scenario, self.window_len_s, self.t)
        for header, records in zip(_SENSE_HEADERS, (meas, kpis)):
            # rows are numbered as the lines of the simulator's CSV file
            self.pipeline.ingest_rows(
                header, enumerate((r.csv_row() for r in records), start=2))
        self.pipeline.quiesce()
        t0 = self.t
        self.t += self.window_len_s
        return t0, self.t

    def snapshot(self, t0: float, t1: float) -> KpiSnapshot:
        per_cell: dict[str, dict] = {}
        wh = self.warehouse
        for subject, names in _SNAPSHOT_FIELDS:
            cols = [c.name for c in wh.subject_spec(subject).columns]
            pick = itemgetter(*(cols.index(c) for c in ("cell_id", *names)))
            for cid, *values in map(pick, wh.scan(subject, t0, t1)):
                per_cell.setdefault(cid, {}).update(zip(names, values))
        return KpiSnapshot(t0, t1, per_cell,
                           self.case.objective(per_cell))

    def target_cell(self) -> str:
        ids = sorted(c.cell_id for c in self.scenario.cells)
        return ids[self.epoch % len(ids)]

    # -- the five-stage epoch -------------------------------------------
    def run_epoch(self) -> tuple[Command, KpiSnapshot, KpiSnapshot]:
        t0, t1 = self._sense_window()                      # 1. sense+store
        before = self.snapshot(t0, t1)                     # 2. baseline KPI
        cmd = self.case.optimize(self, before)             # 3. optimize
        validate_command(cmd, self.scenario)               # 4. deploy
        prior_cells = self.cells()
        # a no-op changes no config: nothing to snapshot or to restore
        if not cmd.is_noop():
            self.scenario = engine.apply_command(self.scenario, cmd.cell_id,
                                                 cmd.fields)
            self.config_log.record(self.t, self.cells())
        self.command_log.record(cmd)
        v0, v1 = self._sense_window()                      # 5. verify
        after = self.snapshot(v0, v1)
        decision = self.case.decide(self, before, after, prior_cells)
        if decision == "rolled_back" and not cmd.is_noop():
            self.scenario = copy.copy(self.scenario)
            self.scenario.cells = [prior_cells[c.cell_id]
                                   for c in self.scenario.cells]
            self.config_log.record(self.t, self.cells())
        self.entries.append({"epoch": self.epoch,
                             "before": before.to_dict(),
                             "command": cmd.to_dict(),
                             "after": after.to_dict(),
                             "decision": decision})
        self.epoch += 1
        return cmd, before, after

    def run(self, epochs: int, report_path=None) -> LoopReport:
        """Run the epochs; the report, partial with its error set if an
        epoch raised, is kept as `self.report` and saved to report_path."""
        if epochs < 1:
            raise ValidationError("epochs must be >= 1")
        report = LoopReport(self.use_case, self.seed, self.window_len_s)
        try:
            for _ in range(epochs):
                self.run_epoch()
        except BaseException as e:  # an interrupt too: say why it stopped
            report.error = f"{type(e).__name__}: {e}"
            raise
        finally:
            report.entries = self.entries
            report.final_config = [c.to_dict() for c in self.scenario.cells]
            report.commands = self.command_log.to_list()
            self.report = report
            if report_path is not None:
                report.save(report_path)
        return report


def run_closed_loop(scenario: Scenario, use_case: str, epochs: int,
                    seed: int = 0, report_path=None) -> LoopReport:
    loop = ClosedLoop(scenario, use_case, seed=seed)
    loop.models = loop.case.offline(scenario, seed)
    for _ in range(loop.case.warm_up_windows):  # history, and no command
        loop._sense_window()
    return loop.run(epochs, report_path)
