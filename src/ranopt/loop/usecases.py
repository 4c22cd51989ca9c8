"""The loop's use cases, one object each, named by one registry.

This is the one place that knows what differs between use cases: the
objective, the candidate commands of an epoch and their predicted
objective, the verify decision, the offline models and the history needed
first.  `ClosedLoop` holds its use case's object and calls it.

Every use case decides one way, in `UseCase.optimize`: it deploys the
first candidate of the largest prediction.  Throughput and MIMO score a
grid on the radio maps (`predicted_throughputs`) over different boxes:
azimuth and tilt around the target's pointing for throughput, the
target's transmit power alone for MIMO.  Interference scores the DQN
actions by the target's row of the stacked agents' Q-values, and energy
scores the four shutdown strategies by their expected saving.  Only the
interference use case trains models offline: its `DqnAgents`.  Energy
judges QoS only for a command that lowers some cell's capacity."""
from __future__ import annotations

import copy
import itertools
from dataclasses import replace

import numpy as np

from ..ai import dqn as dqn_mod
from ..ai.forecast import MIN_HISTORY, TrafficForecaster
from ..ai.strategy import (STRATEGIES, STRATEGY_FIELDS, capacity,
                           predicted_savings)
from ..ai.surrogate import build_grid_axes
from ..ai.throughput import MEASUREMENT_COLUMNS, predicted_throughputs
from ..errors import InsufficientHistory
from ..simcore.energy import energy_step
from ..warehouse.subjects import SUBJECT_BEAM, SUBJECT_ENERGY
from .commands import Command

ROLLBACK_TOLERANCE = 0.01
QOS_SERVED_FLOOR = 0.99
ENERGY_FORECAST_HORIZON = 4
DQN_EPISODES = 12
DQN_EPISODE_LEN = 25
# the throughput and MIMO grids' steps
GRID_STEPS = {"azimuth_deg": 10.0, "tilt_deg": 2.0, "tx_power_dbm": 1.0}


def _window_positions(loop, snap) -> tuple[np.ndarray, np.ndarray]:
    """Serving cell ids and (n, 2) positions of the window's measurements."""
    beam = loop.warehouse.read(SUBJECT_BEAM, ("cell_id", "pos_x_m", "pos_y_m"),
                               snap.t0_s, snap.t1_s)
    return beam["cell_id"], np.column_stack([beam["pos_x_m"],
                                             beam["pos_y_m"]])


def rollback_if_worse(before, after) -> str:
    """"accepted" unless the objective dropped more than 1% below baseline.

    The margin scales with |objective| so the rule also behaves for
    negative objectives (collision, energy)."""
    margin = ROLLBACK_TOLERANCE * abs(before.objective)
    return "rolled_back" if after.objective < before.objective - margin \
        else "accepted"


def _qos_holds(before, after) -> bool:
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


class UseCase:
    warm_up_windows = 0

    def objective(self, per_cell: dict) -> float:
        return sum(v.get("throughput_mbps", 0.0) for v in per_cell.values())

    def candidates(self, loop, cell) -> list[dict]:
        """The fields of each command the epoch may deploy to `cell`."""
        return []

    def predict(self, loop, target: str, candidates: list[dict],
                before) -> list[float]:
        """The predicted objective of each candidate, from warehouse reads
        only; none when the use case cannot predict yet."""
        return []

    def optimize(self, loop, before) -> Command:
        """The epoch's command: the first candidate of the largest
        prediction, or a no-op when there is no candidate or no score."""
        target = loop.target_cell()
        candidates = self.candidates(loop, loop.scenario.cell(target))
        scores = self.predict(loop, target, candidates, before) \
            if candidates else []
        fields = candidates[int(np.argmax(scores))] if scores else {}
        return Command(target, fields, loop.use_case, loop.epoch)

    def decide(self, loop, before, after, prior_cells: dict) -> str:
        return rollback_if_worse(before, after)

    def offline(self, scenario, seed: int) -> dict:
        """Models trained once before the loop, never during epochs."""
        return {}


class Throughput(UseCase):
    def box(self, cell) -> dict:
        """The search box of the target cell: {field: (lo, hi)}, centered
        on its current pointing at its current power."""
        return {"azimuth_deg": (max(0.0, cell.azimuth_deg - 40.0),
                                min(355.0, cell.azimuth_deg + 40.0)),
                "tilt_deg": (0.0, 14.0),
                "tx_power_dbm": (cell.tx_power_dbm, cell.tx_power_dbm)}

    def candidates(self, loop, cell) -> list[dict]:
        """Every point of the box's grid, in np.ndindex order."""
        axes = build_grid_axes(self.box(cell), GRID_STEPS)
        return [dict(zip(axes, point)) for point in
                itertools.product(*(a.tolist() for a in axes.values()))]

    def predict(self, loop, target, candidates, before) -> list[float]:
        columns = loop.warehouse.read(SUBJECT_BEAM, MEASUREMENT_COLUMNS)
        return predicted_throughputs(
            columns, loop.cells(), loop.config_log, target, candidates,
            loop.scenario.bandwidth_mhz, loop.scenario.carrier_ghz)


class Mimo(Throughput):
    def box(self, cell) -> dict:
        """The target's transmit power alone, over its whole range."""
        return {"tx_power_dbm": (30.0, 53.0)}


class Interference(UseCase):
    def objective(self, per_cell: dict) -> float:
        users = sum(v.get("num_users", 0) for v in per_cell.values())
        if users == 0:
            return 0.0
        coll = sum(v.get("collision_ratio", 0.0) * v.get("num_users", 0)
                   for v in per_cell.values())
        return -coll / users

    def candidates(self, loop, cell) -> list[dict]:
        """Every (pattern, offset) action, in ACTION_TABLE order."""
        return [{"pattern_id": pattern, "cio_db": cio}
                for pattern, cio in dqn_mod.ACTION_TABLE]

    def predict(self, loop, target, candidates, before) -> list[float]:
        """The target agent's masked Q-values at the baseline window."""
        agents = loop.models.get("dqn_agents")
        if agents is None or target not in agents.cell_ids:
            return []
        obs = dqn_mod.observe_all(loop.scenario,
                                  *_window_positions(loop, before))
        return agents.q_values(obs)[agents.cell_ids.index(target)].tolist()

    def offline(self, scenario, seed: int) -> dict:
        """The DQN agents."""
        agents, _ = dqn_mod.dqn_train(
            copy.deepcopy(scenario), DQN_EPISODES,
            dqn_mod.DqnConfig(episode_len=DQN_EPISODE_LEN), seed=seed)
        return {"dqn_agents": agents}


class Energy(UseCase):
    warm_up_windows = MIN_HISTORY

    def objective(self, per_cell: dict) -> float:
        return -sum(v.get("energy_wh", 0.0) for v in per_cell.values())

    def candidates(self, loop, cell) -> list[dict]:
        """Each strategy, in STRATEGIES order, as the fields it changes."""
        return [{k: v for k, v in STRATEGY_FIELDS[name].items()
                 if getattr(cell, k) != v} for name in STRATEGIES]

    def forecast(self, loop, target: str) -> np.ndarray:
        """The target's load over the forecast horizon, within [0, 1]."""
        energy = loop.warehouse.read(SUBJECT_ENERGY,
                                     ("t_s", "cell_id", "rbur"))
        mine = energy["cell_id"] == target
        history = energy["rbur"][mine][np.argsort(energy["t_s"][mine],
                                                  kind="stable")]
        if len(history) < MIN_HISTORY:
            raise InsufficientHistory(
                f"energy use case needs {MIN_HISTORY} windows of load "
                f"history, have {len(history)}; warm the loop up first")
        forecaster = TrafficForecaster().fit(history)
        return np.clip(forecaster.predict(ENERGY_FORECAST_HORIZON), 0, 1)

    def predict(self, loop, target, candidates, before) -> list[float]:
        return predicted_savings(loop.scenario.cell(target), candidates,
                                 self.forecast(loop, target))

    def decide(self, loop, before, after, prior_cells: dict) -> str:
        change = [capacity(loop.scenario.cell(cid)) - capacity(prior)
                  for cid, prior in prior_cells.items()]
        # only a command that lowers some cell's capacity can shed traffic:
        # the scheduler reads no other energy field
        if min(change) < 0.0 and not _qos_holds(before, after):
            return "rolled_back"
        # a capacity-restoring command is driven by the QoS floor and
        # necessarily spends more energy; it must not be vetoed for that
        if max(change) > 0.0:
            return "accepted"
        # load-matched counterfactual: what the prior config would have
        # burned while serving the verification window's load
        cf = 0.0
        for cid, prior in prior_cells.items():
            rbur = after.per_cell.get(cid, {}).get("rbur", 0.0)
            cf -= energy_step(prior, rbur, loop.window_len_s)[1]
        return rollback_if_worse(replace(before, objective=cf), after)


USE_CASES: dict[str, UseCase] = {"throughput": Throughput(), "mimo": Mimo(),
                                 "interference": Interference(),
                                 "energy": Energy()}
