"""Closed-loop epochs: sense -> store -> optimize -> deploy -> verify.

Each epoch simulates one sense window, ingests it through the acquisition
pipeline into the warehouse, computes a baseline KPI snapshot from warehouse
queries alone, asks the use case's optimizer for one command, applies it,
then verifies over one more window and rolls the command back if the
objective regressed by more than 1%.  Sensing stays in memory: the
simulator's rows go straight to the pipeline's row parser, with no file.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ..acquisition.pipeline import AcquisitionPipeline, parse_header
from ..ai import dqn as dqn_mod
from ..ai import mimo as mimo_mod
from ..ai.forecast import MIN_HISTORY, TrafficForecaster
from ..ai.strategy import recommend_strategy
from ..ai.throughput import ConfigLog, recommend_config
from ..errors import InsufficientHistory, ValidationError
from ..simcore import engine
from ..simcore.energy import energy_step
from ..simcore.radio import best_beam_rsrp_dbm, dbm_to_mw
from ..simcore.types import KpiRecord, MeasurementRecord, Scenario
from ..warehouse.store import Warehouse
from ..warehouse.subjects import (SUBJECT_BEAM, SUBJECT_ENERGY,
                                  SUBJECT_INTERFERENCE, SUBJECT_THROUGHPUT,
                                  create_bundled_subjects)
from .commands import Command, CommandLog, validate_command

USE_CASES = ("throughput", "mimo", "interference", "energy")
ROLLBACK_TOLERANCE = 0.01
WINDOW_LEN_S = 3600.0
QOS_SERVED_FLOOR = 0.99
ENERGY_FORECAST_HORIZON = 4
DQN_EPISODES = 12
DQN_EPISODE_LEN = 25
MIMO_TRAIN_STATES = 300
MIMO_EVAL_STATES = 100
MIMO_FINETUNE_STEPS = 200
_SENSE_HEADERS = (parse_header(MeasurementRecord.CSV_HEADER),
                  parse_header(KpiRecord.CSV_HEADER))


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


def rollback_if_worse(before: KpiSnapshot, after: KpiSnapshot) -> str:
    """"accepted" unless the objective dropped more than 1% below baseline.

    The margin scales with |objective| so the rule also behaves for
    negative objectives (collision, energy)."""
    margin = ROLLBACK_TOLERANCE * abs(before.objective)
    return "rolled_back" if after.objective < before.objective - margin \
        else "accepted"


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
        return {"use_case": self.use_case, "seed": self.seed,
                "window_len_s": self.window_len_s, "entries": self.entries,
                "final_config": self.final_config, "commands": self.commands,
                "error": self.error}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def from_json(cls, s: str) -> "LoopReport":
        d = json.loads(s)
        return cls(use_case=d["use_case"], seed=d["seed"],
                   window_len_s=d["window_len_s"], entries=d["entries"],
                   final_config=d["final_config"], commands=d["commands"],
                   error=d.get("error"))


class ClosedLoop:
    def __init__(self, scenario: Scenario, use_case: str, seed: int = 0,
                 models: dict | None = None, optimizer_override=None,
                 workdir=None):
        if use_case not in USE_CASES:
            raise ValidationError(
                f"unknown use case {use_case!r} (allowed: {USE_CASES})")
        self.use_case = use_case
        self.seed = int(seed)
        self.window_len_s = WINDOW_LEN_S
        self.scenario = copy.deepcopy(scenario)
        self.models = models or {}
        self.optimizer_override = optimizer_override
        # workdir is ignored, sensing writes no file; bench/workloads.py passes it
        self.warehouse = Warehouse()
        create_bundled_subjects(self.warehouse)
        self.pipeline = AcquisitionPipeline(
            self.warehouse, known_cells=[c.cell_id for c in self.scenario.cells],
            hash_key=f"loop-{self.seed}".encode())
        self.t = 0.0
        self.epoch = 0
        self.config_log = ConfigLog()
        self.config_log.record(0.0, self._cells())
        self.command_log = CommandLog()
        self.entries: list[dict] = []

    # -- plumbing -------------------------------------------------------
    def _cells(self) -> dict:
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

    def warm_up(self, n_windows: int) -> None:
        """Accumulate baseline history without issuing commands."""
        for _ in range(n_windows):
            self._sense_window()

    def _scan_dicts(self, subject: str, t0: float, t1: float) -> list[dict]:
        cols = [c.name for c in self.warehouse.subject_spec(subject).columns]
        return [dict(zip(cols, row))
                for row in self.warehouse.scan(subject, t0, t1)]

    def snapshot(self, t0: float, t1: float) -> KpiSnapshot:
        per_cell: dict[str, dict] = {}
        for row in self._scan_dicts(SUBJECT_THROUGHPUT, t0, t1):
            per_cell.setdefault(row["cell_id"], {}).update(
                throughput_mbps=row["throughput_mbps"], rbur=row["rbur"],
                num_users=row["num_users"])
        for row in self._scan_dicts(SUBJECT_INTERFERENCE, t0, t1):
            per_cell.setdefault(row["cell_id"], {}).update(
                collision_ratio=row["collision_ratio"])
        for row in self._scan_dicts(SUBJECT_ENERGY, t0, t1):
            per_cell.setdefault(row["cell_id"], {}).update(
                power_w=row["power_w"], energy_wh=row["energy_wh"])
        return KpiSnapshot(t0, t1, per_cell,
                           self._objective(per_cell))

    def _objective(self, per_cell: dict) -> float:
        if self.use_case in ("throughput", "mimo"):
            return sum(v.get("throughput_mbps", 0.0)
                       for v in per_cell.values())
        if self.use_case == "interference":
            users = sum(v.get("num_users", 0) for v in per_cell.values())
            if users == 0:
                return 0.0
            coll = sum(v.get("collision_ratio", 0.0) * v.get("num_users", 0)
                       for v in per_cell.values())
            return -coll / users
        return -sum(v.get("energy_wh", 0.0) for v in per_cell.values())

    def _target_cell(self) -> str:
        ids = sorted(c.cell_id for c in self.scenario.cells)
        return ids[self.epoch % len(ids)]

    # -- per use case optimizers (warehouse reads only) -----------------
    def default_bounds(self, cell_id: str) -> tuple[dict, dict]:
        """Search box centered on the cell's current pointing."""
        cell = self.scenario.cell(cell_id)
        az_lo = max(0.0, cell.azimuth_deg - 40.0)
        az_hi = min(355.0, cell.azimuth_deg + 40.0)
        bounds = {"azimuth_deg": (az_lo, az_hi), "tilt_deg": (0.0, 14.0),
                  "tx_power_dbm": (cell.tx_power_dbm, cell.tx_power_dbm)}
        steps = {"azimuth_deg": 10.0, "tilt_deg": 2.0, "tx_power_dbm": 1.0}
        return bounds, steps

    def _optimize_throughput(self, before: KpiSnapshot) -> Command:
        target = self._target_cell()
        rows = self._scan_dicts(SUBJECT_BEAM, None, None)
        bounds, steps = self.default_bounds(target)
        try:
            fields, _ = recommend_config(
                rows, self._cells(), self.config_log, target, bounds,
                self.scenario.bandwidth_mhz, self.scenario.carrier_ghz,
                steps=steps)
        except InsufficientHistory:  # too few measurements of the target
            fields = {}
        return Command(target, fields, "throughput", self.epoch)

    def _optimize_mimo(self, before: KpiSnapshot) -> Command:
        """Re-split the network power budget with the allocation policy.

        Cross-cell coupling is estimated with the analytic antenna model at
        the warehouse-observed user positions; only the measured positions
        come from the sensing pipeline.  Without a policy from the offline
        phase (a network of fewer than two cells has none) the command is
        a no-op."""
        policy = self.models.get("mimo_policy")
        if policy is None:
            return Command(self._target_cell(), {}, "mimo", self.epoch)
        cells = self._cells()
        ids = sorted(cells)
        k = len(ids)
        rows = self._scan_dicts(SUBJECT_BEAM, before.t0_s, before.t1_s)
        pos_by_cell = {cid: np.array([[r["pos_x_m"], r["pos_y_m"]]
                                      for r in rows if r["cell_id"] == cid])
                       for cid in ids}
        if any(p.size == 0 for p in pos_by_cell.values()):
            return Command(self._target_cell(), {}, "mimo", self.epoch)
        tx_mw = np.array([dbm_to_mw(cells[cid].tx_power_dbm) for cid in ids])
        gains = np.empty((k, k))
        for j, cj in enumerate(ids):
            for u, cu in enumerate(ids):
                rsrp, _ = best_beam_rsrp_dbm(cells[cj], pos_by_cell[cu],
                                             self.scenario.carrier_ghz)
                gains[j, u] = float(np.mean(dbm_to_mw(rsrp))) / tx_mw[j]
        scale = gains.max()
        state = mimo_mod.MimoState(gains=gains / scale)
        fracs = policy.predict(state.features()[None, :])[0]
        total_mw = tx_mw.sum()
        target = self._target_cell()
        new_dbm = float(np.clip(
            10.0 * np.log10(max(fracs[ids.index(target)] * total_mw, 1e-9)),
            30.0, 53.0))
        return Command(target, {"tx_power_dbm": round(new_dbm, 2)},
                       "mimo", self.epoch)

    def _optimize_interference(self, before: KpiSnapshot) -> Command:
        agents = self.models.get("dqn_agents")
        target = self._target_cell()
        if not agents or target not in agents:
            return Command(target, {}, "interference", self.epoch)
        rows = self._scan_dicts(SUBJECT_BEAM, before.t0_s, before.t1_s)
        meas = [SimpleNamespace(cell_id=r["cell_id"],
                                pos=(r["pos_x_m"], r["pos_y_m"]))
                for r in rows]
        cell_index = [c.cell_id for c in self.scenario.cells].index(target)
        obs = dqn_mod.observe(self.scenario, cell_index, meas)
        action = agents[target].greedy(obs)
        pattern, cio = dqn_mod.ACTION_TABLE[action]
        return Command(target, {"pattern_id": pattern, "cio_db": cio},
                       "interference", self.epoch)

    def _optimize_energy(self, before: KpiSnapshot) -> Command:
        target = self._target_cell()
        rows = self._scan_dicts(SUBJECT_ENERGY, None, None)
        history = [r["rbur"] for r in sorted(
            (r for r in rows if r["cell_id"] == target),
            key=lambda r: r["t_s"])]
        if len(history) < MIN_HISTORY:
            raise InsufficientHistory(
                f"energy use case needs {MIN_HISTORY} windows of load "
                f"history, have {len(history)}; warm the loop up first")
        forecaster = TrafficForecaster().fit(history)
        forecast = forecaster.predict(ENERGY_FORECAST_HORIZON)
        cell = self.scenario.cell(target)
        _, fields, _saving = recommend_strategy(cell, np.clip(forecast, 0, 1))
        delta = {k: v for k, v in fields.items() if getattr(cell, k) != v}
        return Command(target, delta, "energy", self.epoch)

    _OPTIMIZERS = {"throughput": _optimize_throughput,
                   "mimo": _optimize_mimo,
                   "interference": _optimize_interference,
                   "energy": _optimize_energy}

    # -- the five-stage epoch -------------------------------------------
    def run_epoch(self) -> tuple[Command, KpiSnapshot, KpiSnapshot]:
        t0, t1 = self._sense_window()                      # 1. sense+store
        before = self.snapshot(t0, t1)                     # 2. baseline KPI
        if self.optimizer_override is not None:            # 3. optimize
            cmd = self.optimizer_override(self, before)
        else:
            cmd = self._OPTIMIZERS[self.use_case](self, before)
        validate_command(cmd, self.scenario)               # 4. deploy
        prior_cells = {c.cell_id: c for c in self.scenario.cells}
        # a no-op changes no config: nothing to snapshot or to restore
        if not cmd.is_noop():
            self.scenario = engine.apply_command(self.scenario, cmd.cell_id,
                                                 cmd.fields)
            self.config_log.record(self.t, self._cells())
        self.command_log.record(cmd)
        v0, v1 = self._sense_window()                      # 5. verify
        after = self.snapshot(v0, v1)
        decision = self._decide(before, after, prior_cells)
        if decision == "rolled_back" and not cmd.is_noop():
            self.scenario = copy.deepcopy(self.scenario)
            self.scenario.cells = [prior_cells[c.cell_id]
                                   for c in self.scenario.cells]
            self.config_log.record(self.t, self._cells())
        self.entries.append({"epoch": self.epoch,
                             "before": before.to_dict(),
                             "command": cmd.to_dict(),
                             "after": after.to_dict(),
                             "decision": decision})
        self.epoch += 1
        return cmd, before, after

    def _decide(self, before: KpiSnapshot, after: KpiSnapshot,
                prior_cells: dict) -> str:
        baseline = before
        if self.use_case == "energy":
            if not self._qos_holds(before, after):
                return "rolled_back"
            # a capacity-restoring command is driven by the QoS floor and
            # necessarily spends more energy; it must not be vetoed for that
            if any(self._capacity_rank(self.scenario.cell(cid))
                   > self._capacity_rank(prior)
                   for cid, prior in prior_cells.items()):
                return "accepted"
            # load-matched counterfactual: what the prior config would have
            # burned while serving the verification window's load
            cf = 0.0
            for cid, prior in prior_cells.items():
                rbur = after.per_cell.get(cid, {}).get("rbur", 0.0)
                cf -= energy_step(prior, rbur, self.window_len_s)[1]
            baseline = KpiSnapshot(before.t0_s, before.t1_s,
                                   before.per_cell, cf)
        return rollback_if_worse(baseline, after)

    @staticmethod
    def _capacity_rank(cell) -> tuple:
        return (cell.carrier_on, cell.channel_fraction, cell.symbol_fraction)

    def _qos_holds(self, before: KpiSnapshot, after: KpiSnapshot) -> bool:
        """Load-normalized realized-throughput guard for shutdown commands."""
        def per_user(snap):
            users = sum(v.get("num_users", 0) for v in snap.per_cell.values())
            tput = sum(v.get("throughput_mbps", 0.0)
                       for v in snap.per_cell.values())
            return (tput / users) if users else None
        b, a = per_user(before), per_user(after)
        if b is None or a is None or b <= 0.0:
            return True
        return a >= QOS_SERVED_FLOOR * b

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


def prepare_models(scenario: Scenario, use_case: str, seed: int) -> dict:
    """Offline training phase run before the loop (not during epochs),
    the one place that trains a use case's models.

    interference: the DQN agents and their learning curve.  mimo, for k >= 2
    cells: the dual network at k, that is the rate estimator, the policy
    `select_policy` keeps and the true rates of both candidate policies.
    Any other use case, or a network of one cell, trains nothing."""
    if use_case == "interference":
        agents, curve = dqn_mod.dqn_train(
            copy.deepcopy(scenario), DQN_EPISODES,
            dqn_mod.DqnConfig(episode_len=DQN_EPISODE_LEN), seed=seed)
        return {"dqn_agents": agents, "dqn_curve": curve}
    k = len(scenario.cells)
    if use_case != "mimo" or k < 2:
        return {}
    states = mimo_mod.sample_states(MIMO_TRAIN_STATES, seed=seed, k=k)
    estimator = mimo_mod.train_rate_estimator(states, seed=seed)
    policy = mimo_mod.pretrain_policy(states, seed=seed)
    tuned = mimo_mod.finetune_policy(estimator, policy, states,
                                     steps=MIMO_FINETUNE_STEPS, seed=seed)
    eval_states = mimo_mod.sample_states(MIMO_EVAL_STATES, seed=seed + 1, k=k)
    chosen, r_pre, r_fine = mimo_mod.select_policy(policy, tuned, eval_states)
    return {"mimo_estimator": estimator, "mimo_policy": chosen,
            "mimo_rates": {"pretrained": r_pre, "finetuned": r_fine}}


def run_closed_loop(scenario: Scenario, use_case: str, epochs: int,
                    seed: int = 0, report_path=None) -> LoopReport:
    loop = ClosedLoop(scenario, use_case, seed=seed,
                      models=prepare_models(scenario, use_case, seed))
    loop.warm_up(MIN_HISTORY if use_case == "energy" else 0)
    return loop.run(epochs, report_path)
