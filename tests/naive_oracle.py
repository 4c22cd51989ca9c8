"""Naive reference implementations kept as oracles for the optimized code:

* `run_aggregates`, the row-tuple query path, for the warehouse's columnar
  engine: filter, group and aggregate Python row tuples one by one, with
  the percentiles `np.percentile` computes;
* `attach_and_rate`, the per-cell loop that rated one network at a time,
  frozen with its SINR and scheduler arithmetic inlined, for the batched
  kernel in `ranopt.simcore.scheduler`;
* `enumerated_strategy`, the four energy strategies scored one at a time
  with their capacity and hourly saving worked out here, for the energy
  use case's search: `ranopt.ai.strategy.predicted_savings` under
  `UseCase.optimize`'s argmax;
* `LinearConfigLog`, the config log that re-sorts on every record and
  scans every entry on lookup, for `ranopt.ai.throughput.ConfigLog`;
* `observe_per_record`, the DQN observation that counted a cell's users
  one measurement record at a time, for `ranopt.ai.dqn.observe`;
* `step_per_user`, the simulator window built one user and one record at
  a time, for `ranopt.simcore.engine.step`, the record view of the
  columnar window;
* `dqn_train_per_agent`, the DQN trainer that updated one agent at a time
  from a deque replay and observed the window's records, for the stacked
  learner of `ranopt.ai.dqn.dqn_train`;
* `NaivePipeline` and `NaiveWarehouse`, the row path of batch ingest: the
  per-header row checker that applied the cleaning rules to one row at a
  time (with the hash check's full match), per-row dedup, and the load
  that admitted one record at a time against the running clock, for the
  column checker of `ranopt.acquisition.pipeline` and `Warehouse.load`.
"""
from __future__ import annotations

import copy
import re
import threading
from collections import deque
from dataclasses import dataclass
from itertools import islice
from math import isfinite

import numpy as np

from ranopt.acquisition.pipeline import BATCH_ROWS
from ranopt.acquisition.records import (RawRecord, RejectCode, RejectReason,
                                        SOURCE_TAGS, hash_user_id)
from ranopt.ai.dqn import (EPSILON_END, EPSILON_START, GAMMA, HIDDEN,
                           N_ACTIONS, N_SECTORS, USER_COUNT_SCALE,
                           WINDOW_LEN_S, DqnAgents, DqnConfig, apply_actions,
                           obs_dim, observe_all, window_collision)
from ranopt.ai.mlp import Mlp, momentum_step
from ranopt.ai.strategy import STRATEGIES, STRATEGY_FIELDS
from ranopt.simcore import energy as energy_model
from ranopt.simcore import engine
from ranopt.simcore.engine import (draw_positions, hour_bucket, shadow_fields,
                                   user_ids)
from ranopt.simcore.radio import (ShadowField, _rsrp_dbm, best_beam_rsrp_dbm,
                                  dbm_to_mw, noise_dbm, pointing, wrap_deg)
from ranopt.simcore.scheduler import _rate_and_use
from ranopt.simcore.scheduler import attach_and_rate as batched_attach
from ranopt.simcore.scheduler import collision_ratio
from ranopt.errors import UnknownSource
from ranopt.simcore.types import (ALLOWED_CIO_DB, N_PATTERNS, RATE_CAP_MBPS,
                                  RSRP_MAX_DBM, RSRP_MIN_DBM, SINR_MAX_DB,
                                  SINR_MIN_DB, Beam, CellConfig, KpiRecord,
                                  MeasurementRecord, Scenario)
from ranopt.warehouse.subjects import (SUBJECT_BEAM, SUBJECT_ENERGY,
                                       SUBJECT_INTERFERENCE,
                                       SUBJECT_THROUGHPUT)
from ranopt.warehouse.query import (OPS, QueryTask, ResultTable,
                                    aggregate_values)

_PERCENTILES = {"p50": 50, "p95": 95}


def _aggregate(agg: str, values: list):
    if agg in _PERCENTILES and values:
        return float(np.percentile(np.asarray(values, dtype=float),
                                   _PERCENTILES[agg]))
    return aggregate_values(agg, values)


def run_aggregates(task: QueryTask, spec, rows: list[tuple]) -> ResultTable:
    """Filter/group/aggregate over raw row tuples; rows sorted by group key."""
    idx = {c.name: i for i, c in enumerate(spec.columns)}
    kept = []
    for r in rows:
        ok = True
        for col, op, lit in task.filters:
            if not OPS[op](r[idx[col]], lit):
                ok = False
                break
        if ok:
            kept.append(r)
    groups: dict[tuple, list] = {}
    for r in kept:
        key = tuple(r[idx[c]] for c in task.group_by)
        groups.setdefault(key, []).append(r)
    if not task.group_by and not groups:
        groups[()] = []
    header = list(task.group_by) + [f"{agg}({col})" for agg, col in task.aggregates]
    out = []
    for key in sorted(groups):  # each column has one dtype
        grp = groups[key]
        vals = []
        for agg, col in task.aggregates:
            col_vals = grp if col == "*" else [r[idx[col]] for r in grp]
            vals.append(_aggregate(agg, col_vals))
        out.append(tuple(key) + tuple(vals))
    return ResultTable(header=header, rows=out)


def _sinr_db(serving_mw, interferer_mw_list, noise_mw):
    s = np.asarray(serving_mw, dtype=float)
    i_tot = np.sum([np.asarray(x, dtype=float) for x in interferer_mw_list],
                   axis=0) if len(interferer_mw_list) else 0.0
    return np.clip(10.0 * np.log10(s / (i_tot + noise_mw)), SINR_MIN_DB,
                   SINR_MAX_DB)


def _schedule_and_rate(bandwidth_mhz, sinr_db, demand):
    n = sinr_db.size
    share_mhz = bandwidth_mhz / n
    raw = 0.75 * share_mhz * np.log2(1.0 + 10.0 ** (sinr_db / 10.0))
    cap = np.minimum(demand, RATE_CAP_MBPS)
    rate = np.minimum(raw, cap)
    with np.errstate(divide="ignore", invalid="ignore"):
        used_fraction = np.where(raw > 0.0, np.minimum(1.0, cap / raw), 0.0)
    return rate, float(np.sum(rate)), float(np.sum(used_fraction) / n)


def attach_and_rate(rsrp_dbm, cells, bandwidth_mhz: float, demand_mbps):
    """One (cells, users) network, rated cell by cell."""
    rsrp = np.asarray(rsrp_dbm, dtype=float)
    n_users = rsrp.shape[1]
    on = np.flatnonzero([c.carrier_on for c in cells])
    bias = np.array([c.cio_db if c.carrier_on else -np.inf for c in cells])
    serving = (rsrp + bias[:, None]).argmax(axis=0) if on.size \
        else np.full(n_users, -1)
    demand = np.broadcast_to(np.asarray(demand_mbps, dtype=float), n_users)
    noise_mw = dbm_to_mw(noise_dbm(bandwidth_mhz))
    sinr, rate = np.full(n_users, np.nan), np.zeros(n_users)
    best_int = np.full(n_users, -np.inf)
    throughput, rbur = np.zeros(len(cells)), np.zeros(len(cells))
    for i in on:
        idx = np.flatnonzero(serving == i)
        if idx.size == 0:
            continue
        others = on[on != i]
        sinr[idx] = _sinr_db(dbm_to_mw(rsrp[i, idx]),
                             [dbm_to_mw(rsrp[j, idx]) for j in others],
                             noise_mw)
        best_int[idx] = rsrp[others][:, idx].max(axis=0, initial=-np.inf)
        rate[idx], throughput[i], rbur[i] = _schedule_and_rate(
            bandwidth_mhz * cells[i].channel_fraction, sinr[idx], demand[idx])
    return serving, sinr, rate, best_int, throughput, rbur


def schedule_and_rate(bandwidth_mhz: float, sinr_db, demand_mbps):
    """Equal-PRB-share rates for one cell's attached users.

    Returns (per-user rate Mbps, cell throughput Mbps, rbur); unused share
    lowers rbur.
    """
    sinr_db = np.asarray(sinr_db, dtype=float)
    n = sinr_db.size
    if n == 0:
        return np.zeros(0), 0.0, 0.0
    rate, used = _rate_and_use(bandwidth_mhz / n, sinr_db,
                               np.asarray(demand_mbps, dtype=float))
    return rate, float(np.sum(rate)), float(np.sum(used) / n)


def compute_rsrp_dbm(cell: CellConfig, beam: Beam, pos_xy, carrier_ghz: float,
                     shadow: ShadowField | None = None):
    """Per-RE received power of one SSB beam at the given positions."""
    rsrp = _rsrp_dbm(cell, pointing(cell), [beam], pos_xy, carrier_ghz,
                     shadow)[0, 0]
    return rsrp if np.ndim(pos_xy) > 1 else float(rsrp[0])


def enumerated_strategy(cell: CellConfig, forecast) -> tuple[str, float]:
    """(strategy, saving in Wh) by enumeration: each strategy's capacity
    (carrier on times channel fraction) and saving against always-on, one
    hour per forecast step, of the strategies whose capacity covers
    min(1.2 x peak, 1) the first with the largest saving."""
    loads = [float(v) for v in forecast]
    need = min(1.2 * max(loads), 1.0)
    base = cell.replace(**STRATEGY_FIELDS["none"])
    best = None
    for name in STRATEGIES:
        cand = cell.replace(**STRATEGY_FIELDS[name])
        cap = cand.channel_fraction if cand.carrier_on else 0.0
        if cap < need:
            continue
        saving = 0.0
        for load in loads:
            saving += (energy_model.energy_step(base, load, 3600.0)[1]
                       - energy_model.energy_step(cand, min(load, cap),
                                                  3600.0)[1])
        if best is None or saving > best[1]:
            best = (name, saving)
    return best


class LinearConfigLog:
    """Snapshots of cell configs, re-sorted by time on every record."""

    def __init__(self):
        self._entries: list[tuple[float, dict]] = []

    def record(self, t_s: float, cells) -> None:
        snap = {cid: {"azimuth_deg": c.azimuth_deg, "tilt_deg": c.tilt_deg,
                      "tx_power_dbm": c.tx_power_dbm,
                      "pattern_id": c.pattern_id}
                for cid, c in cells.items()}
        self._entries.append((float(t_s), snap))
        self._entries.sort(key=lambda e: e[0])

    def lookup(self, cell_id: str, t_s: float):
        best = None
        for t0, snap in self._entries:
            if t0 <= t_s and cell_id in snap:
                best = snap[cell_id]
        return best


def observe_per_record(scenario, cell_index: int, measurements) -> np.ndarray:
    """One cell's observation from records with .cell_id and .pos."""
    cell = scenario.cells[cell_index]
    counts = np.zeros(N_SECTORS)
    for m in measurements:
        if m.cell_id != cell.cell_id:
            continue
        dx = m.pos[0] - cell.site_pos[0]
        dy = m.pos[1] - cell.site_pos[1]
        rel = wrap_deg(np.degrees(np.arctan2(dy, dx)) - cell.azimuth_deg)
        counts[int((rel + 180.0) // (360.0 / N_SECTORS)) % N_SECTORS] += 1.0
    others = [c for i, c in enumerate(scenario.cells) if i != cell_index]
    neighbor = []
    for c in others:
        neighbor += [c.pattern_id / (N_PATTERNS - 1),
                     c.cio_db / max(ALLOWED_CIO_DB)]
    if not others:
        neighbor = [0.0, 0.0]
    return np.concatenate([counts / USER_COUNT_SCALE, neighbor])


@dataclass
class UserState:
    user_id: str
    pos: tuple[float, float]
    demand_mbps: float


def draw_users(scenario: Scenario, t_s: float) -> list[UserState]:
    """The draw of `draw_positions` as one record per user."""
    per_cluster = draw_positions(scenario, t_s)
    ids = iter(user_ids(len(pos) for pos in per_cluster))
    return [UserState(user_id=next(ids), pos=(x, y),
                      demand_mbps=cl.demand_mbps)
            for cl, pos in zip(scenario.clusters, per_cluster)
            for x, y in pos.tolist()]


def draw_users_per_user(scenario, t_s: float) -> list[UserState]:
    """The seeded hotspot draw, one UserState built per user."""
    rng = np.random.default_rng(
        np.random.SeedSequence([scenario.seed & 0xFFFFFFFF,
                                int(t_s) & 0xFFFFFFFF]))
    mult = scenario.traffic_profile[hour_bucket(t_s)]
    users = []
    for ci, cl in enumerate(scenario.clusters):
        n = int(round(cl.mean_users * mult))
        offsets = rng.normal(0.0, cl.std_m, size=(n, 2))
        for i in range(n):
            users.append(UserState(
                user_id=f"u{ci}-{i:03d}",
                pos=(float(cl.center[0] + offsets[i, 0]),
                     float(cl.center[1] + offsets[i, 1])),
                demand_mbps=cl.demand_mbps))
    return users


def step_per_user(scenario, window_len_s: float, t_s: float):
    """(measurement batch, KPI batch) of one window, records built cell by
    cell and user by user."""
    users = draw_users_per_user(scenario, t_s)
    shadows = shadow_fields(scenario)
    cells = scenario.cells
    pos = np.array([u.pos for u in users]).reshape(-1, 2)
    rsrp = np.empty((len(cells), len(users)))
    beam_idx = np.empty((len(cells), len(users)), dtype=int)
    for i, c in enumerate(cells):
        rsrp[i], beam_idx[i] = best_beam_rsrp_dbm(
            c, pos, scenario.carrier_ghz, shadows[c.cell_id])
    serving, sinr, rate, best_int, throughput, rbur = batched_attach(
        rsrp, cells, scenario.bandwidth_mhz, [u.demand_mbps for u in users])
    measurements, kpis = [], []
    for i, c in enumerate(cells):
        idx = np.flatnonzero(serving == i)
        for k in idx:
            u = users[k]
            measurements.append(MeasurementRecord(
                timestamp_s=float(t_s), user_id=u.user_id, cell_id=c.cell_id,
                beam_id=int(beam_idx[i, k]), signal_type="SSB",
                rsrp_dbm=float(rsrp[i, k]), sinr_db=float(sinr[k]),
                rate_mbps=float(rate[k]), pos=u.pos))
        coll = collision_ratio(rsrp[i, idx], best_int[idx])
        power_w, _ = energy_model.energy_step(c, float(rbur[i]), window_len_s)
        kpis.append(KpiRecord(
            cell_id=c.cell_id, window_start_s=float(t_s),
            window_len_s=float(window_len_s),
            throughput_mbps=float(throughput[i]), rbur=float(rbur[i]),
            num_users=int(idx.size), power_w=float(power_w),
            collision_ratio=float(coll)))
    return measurements, kpis


# -- MLP gradients: central finite differences ---------------------------

def loss(model: Mlp, X, Y) -> float:
    out, _ = model.forward(X)
    return float(np.mean((out - model._target(Y, out)) ** 2))


def loss_and_grads(model: Mlp, X, Y):
    """(loss, weight grads, bias grads)."""
    return model.grads_at(*model.forward(X), Y)


def flatten_params(model: Mlp) -> np.ndarray:
    return np.concatenate([W.ravel() for W in model.weights]
                          + [b.ravel() for b in model.biases])


def set_flat_params(model: Mlp, flat: np.ndarray) -> None:
    i = 0
    for W in model.weights:
        W[...] = flat[i:i + W.size].reshape(W.shape)
        i += W.size
    for b in model.biases:
        b[...] = flat[i:i + b.size].reshape(b.shape)
        i += b.size


def numerical_gradient(model: Mlp, X, Y, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of the loss over all parameters."""
    flat = flatten_params(model).copy()
    grad = np.zeros_like(flat)
    for j in range(flat.size):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            p = flat.copy()
            p[j] += sign * eps
            set_flat_params(model, p)
            if slot == 0:
                up = loss(model, X, Y)
            else:
                down = loss(model, X, Y)
        grad[j] = (up - down) / (2.0 * eps)
    set_flat_params(model, flat)
    return grad


def gradient_check(model: Mlp, X, Y, eps: float = 1e-6) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Coordinates where a rectifier kink sits inside the probe interval make
    the finite difference meaningless; they are detected by disagreement
    between two probe widths and excluded.
    """
    _, gw, gb = loss_and_grads(model, X, Y)
    analytic = np.concatenate([g.ravel() for g in gw]
                              + [g.ravel() for g in gb])
    fd_a = numerical_gradient(model, X, Y, eps)
    fd_b = numerical_gradient(model, X, Y, eps / 4.0)
    denom = np.maximum(np.abs(fd_a), 1e-6)
    stable = np.abs(fd_a - fd_b) / denom < 1e-5
    rel = np.abs(analytic - fd_a) / denom
    return float(rel[stable].max())


# -- DQN: greedy policies and fixed joint actions -------------------------

def greedy_actions(agents: DqnAgents, scenario: Scenario,
                   t_s: float, window_len_s: float = 3600.0) -> dict[str, int]:
    return _greedy(agents, scenario,
                   engine.window(scenario, window_len_s, t_s))


def _greedy(agents, scenario: Scenario, w: engine.Window) -> dict[str, int]:
    """Every agent's greedy action on its observation of window w."""
    obs = observe_all(scenario, w.serving_ids(), w.pos)
    return dict(zip(agents.cell_ids, agents.greedy(obs)))


def greedy_rollout(agents: DqnAgents, scenario: Scenario,
                   n_windows: int, t0_s: float = 0.0,
                   window_len_s: float = 3600.0):
    """Run the greedy policies in closed loop for n_windows.

    Each window every agent observes the current state (including the
    neighbors' latest pattern/offset choices) and re-acts, so the joint
    policy settles into its own equilibrium. Returns (mean collision over
    the windows, actions of the final window).
    """
    state = copy.deepcopy(scenario)
    w = engine.window(state, window_len_s, t0_s)
    collisions = []
    actions: dict[str, int] = {}
    for i in range(n_windows):
        actions = _greedy(agents, state, w)
        state = apply_actions(state, actions)
        w = engine.window(state, window_len_s, t0_s + (i + 1) * window_len_s)
        collisions.append(window_collision(w))
    return float(np.mean(collisions)), actions


def evaluate_joint(scenario: Scenario, actions: dict[str, int], t0_s: float,
                   n_windows: int = 4, window_len_s: float = 3600.0) -> float:
    """Mean reward of a fixed joint action over evaluation windows."""
    state = apply_actions(copy.deepcopy(scenario), actions)
    rewards = []
    for i in range(n_windows):
        w = engine.window(state, window_len_s, t0_s + i * window_len_s)
        rewards.append(-window_collision(w))
    return float(np.mean(rewards))


class PerAgentDqn:
    """One DQN agent with a deque replay, updated on its own."""

    def __init__(self, obs_dim: int, allowed_actions, config: DqnConfig,
                 seed: int):
        self.config = config
        self.allowed = tuple(allowed_actions) if allowed_actions is not None \
            else tuple(range(N_ACTIONS))
        self._mask = np.full(N_ACTIONS, -np.inf)
        self._mask[list(self.allowed)] = 0.0
        self.q = Mlp([obs_dim, *HIDDEN, N_ACTIONS], seed=seed)
        self.target = copy.deepcopy(self.q)
        self.replay = deque(maxlen=config.replay_capacity)
        self._velocity: list = []

    def act(self, obs, epsilon: float, rng) -> int:
        if rng.random() < epsilon:
            return int(rng.choice(self.allowed))
        return self.greedy(obs)

    def greedy(self, obs) -> int:
        qvals = self.q.predict(np.asarray(obs)[None, :])[0]
        return int(np.argmax(qvals + self._mask))

    def remember(self, obs, action, reward, next_obs) -> None:
        self.replay.append((np.asarray(obs, dtype=float), int(action),
                            float(reward), np.asarray(next_obs, dtype=float)))

    def learn(self, rng) -> None:
        if len(self.replay) < self.config.batch_size:
            return
        idx = rng.choice(len(self.replay), size=self.config.batch_size,
                         replace=False)
        batch = [self.replay[i] for i in idx]
        obs = np.stack([b[0] for b in batch])
        actions = np.array([b[1] for b in batch])
        rewards = np.array([b[2] for b in batch])
        next_obs = np.stack([b[3] for b in batch])
        q_next = self.target.predict(next_obs)
        best_next = (q_next + self._mask).max(axis=1)
        targets = self.q.predict(obs).copy()
        targets[np.arange(len(batch)), actions] = \
            rewards + GAMMA * best_next
        _, gw, gb = loss_and_grads(self.q, obs, targets)
        momentum_step(self.q, self._velocity, gw, gb,
                      -self.config.learning_rate)

    def sync_target(self) -> None:
        self.target = copy.deepcopy(self.q)


def dqn_train_per_agent(scenario, episodes: int, config=None,
                        allowed_actions=None, seed: int = 0):
    """(agents, per-episode mean reward), each agent acting, remembering
    and learning in turn, observing the window's records."""
    config = config or DqnConfig()
    allowed_actions = allowed_actions or {}
    agents = {c.cell_id: PerAgentDqn(obs_dim(len(scenario.cells)),
                                     allowed_actions.get(c.cell_id),
                                     config, seed + i)
              for i, c in enumerate(scenario.cells)}

    def observe_all(state, meas):
        return {c.cell_id: observe_per_record(state, i, meas)
                for i, c in enumerate(state.cells)}

    rng = np.random.default_rng(seed)
    explore_steps = max(1, episodes * config.episode_len // 2)
    curve, global_step, t = [], 0, 0.0
    for _ in range(episodes):
        state = copy.deepcopy(scenario)
        meas, _ = step_per_user(state, WINDOW_LEN_S, t)
        obs = observe_all(state, meas)
        ep_rewards = []
        for _ in range(config.episode_len):
            frac = min(global_step / explore_steps, 1.0)
            eps = EPSILON_START + frac * (EPSILON_END - EPSILON_START)
            actions = {cid: agents[cid].act(obs[cid], eps, rng)
                       for cid in agents}
            state = apply_actions(state, actions)
            t += WINDOW_LEN_S
            meas, kpis = step_per_user(state, WINDOW_LEN_S, t)
            users = sum(k.num_users for k in kpis)
            reward = -(sum(k.collision_ratio * k.num_users for k in kpis)
                       / users if users else 0.0)
            next_obs = observe_all(state, meas)
            for cid, agent in agents.items():
                agent.remember(obs[cid], actions[cid], reward, next_obs[cid])
                agent.learn(rng)
            obs = next_obs
            ep_rewards.append(reward)
            global_step += 1
            if global_step % config.target_sync_every == 0:
                for agent in agents.values():
                    agent.sync_target()
        curve.append(float(np.mean(ep_rewards)))
    return agents, curve


# -- ingest: the row path ------------------------------------------------

_HASHED_ID = re.compile(r"h[0-9a-f]{16}")
_INT64 = float(1 << 63)
_STRING_FIELDS = ("user_id", "cell_id", "signal_type")


def _reject(code: RejectCode, field, values, line_no=None) -> RejectReason:
    """A reject whose raw text is the record's values, comma-joined."""
    return RejectReason(code, field, ",".join(map(str, values)), line_no)


class _Rejected(Exception):
    """A record breaks a cleaning rule; args are (code, field)."""


def _unparsable(v) -> bool:
    try:
        float(v)
    except (TypeError, ValueError):
        return True
    return False


def _first(cells, fields, bad) -> str | None:
    """The first of the (name, index) fields whose cell is `bad`."""
    return next((name for name, i in fields if bad(cells[i])), None)


def row_checker(header, known_cells, hash_key: bytes):
    """A function of a row's cells and its source that returns the record's
    warehouse rows, as (subject, row tuple) pairs in the bundled subjects'
    column order, or raises _Rejected for the first cleaning rule the row
    breaks.  The rules, in order, each over the fields in header order:

    1. MissingField: an empty field;
    2. UnparsableValue: a numeric field that float() refuses;
    3. OutOfRange: a NaN or infinite numeric field;
    4. OutOfRange: an integral field (a time, beam id or user count) that
       does not fit in int64;
    5. OutOfRange: RSRP, then SINR, outside the reporting range;
    6. OutOfRange: a negative rate;
    7. InconsistentIds: a cell that is not in known_cells.

    User ids are hashed with hash_key; one that is already a hash passes
    through, so stored rows re-ingest unchanged."""
    offset = 2 if header.enveloped else 0
    index = {f: offset + i for i, f in enumerate(header.payload)}
    numeric = tuple((f, i) for f, i in index.items()
                    if f not in _STRING_FIELDS)
    payload = header.payload

    def reject_missing(cells):
        return _Rejected(RejectCode.MISSING_FIELD,
                         payload[cells.index("", offset) - offset])

    def reject_numeric(cells):
        """The reject for rules 2-3, or None if every value is finite."""
        field = _first(cells, numeric, _unparsable)
        if field is not None:
            return _Rejected(RejectCode.UNPARSABLE_VALUE, field)
        field = _first(cells, numeric, lambda v: not isfinite(float(v)))
        return None if field is None else _Rejected(RejectCode.OUT_OF_RANGE,
                                                    field)

    if payload[0] == "timestamp_s":
        i_t, i_u, i_c, i_b, i_s, i_r, i_q, i_v, i_x, i_y = index.values()
        rate_field = payload[7]
        kbps = rate_field == "rate_kbps"

        def check(cells, source):
            if "" in cells:
                raise reject_missing(cells)
            try:
                t, beam, rsrp, sinr, rate, x, y = (
                    float(cells[i_t]), float(cells[i_b]), float(cells[i_r]),
                    float(cells[i_q]), float(cells[i_v]), float(cells[i_x]),
                    float(cells[i_y]))
            except (TypeError, ValueError):
                raise reject_numeric(cells) from None
            # a sum that is finite has only finite terms
            if not isfinite(t + beam + rsrp + sinr + rate + x + y):
                rejected = reject_numeric(cells)
                if rejected:
                    raise rejected
            if not -_INT64 <= t < _INT64:  # bucketed by the hour
                raise _Rejected(RejectCode.OUT_OF_RANGE, "timestamp_s")
            if not -_INT64 <= beam < _INT64:  # stored as int64
                raise _Rejected(RejectCode.OUT_OF_RANGE, "beam_id")
            if not RSRP_MIN_DBM <= rsrp <= RSRP_MAX_DBM:
                raise _Rejected(RejectCode.OUT_OF_RANGE, "rsrp_dbm")
            if not SINR_MIN_DB <= sinr <= SINR_MAX_DB:
                raise _Rejected(RejectCode.OUT_OF_RANGE, "sinr_db")
            if rate < 0.0:
                raise _Rejected(RejectCode.OUT_OF_RANGE, rate_field)
            cell = cells[i_c]
            if cell not in known_cells:
                raise _Rejected(RejectCode.INCONSISTENT_IDS, "cell_id")
            uid = str(cells[i_u])
            user_hash = uid if _HASHED_ID.fullmatch(uid) \
                else hash_user_id(uid, hash_key)
            return ((SUBJECT_BEAM, (
                t, user_hash, str(cell), int(beam), str(cells[i_s]), rsrp,
                sinr, rate / 1000.0 if kbps else rate, x, y, source)),)
        return check

    i_c, i_t, i_w, i_p, i_r, i_n, i_pw, i_cr = index.values()

    def check(cells, source):
        if "" in cells:
            raise reject_missing(cells)
        try:
            t, length, tput, rbur, users, power, coll = (
                float(cells[i_t]), float(cells[i_w]), float(cells[i_p]),
                float(cells[i_r]), float(cells[i_n]), float(cells[i_pw]),
                float(cells[i_cr]))
        except (TypeError, ValueError):
            raise reject_numeric(cells) from None
        if not isfinite(t + length + tput + rbur + users + power + coll):
            rejected = reject_numeric(cells)
            if rejected:
                raise rejected
        if not -_INT64 <= t < _INT64:
            raise _Rejected(RejectCode.OUT_OF_RANGE, "window_start_s")
        if not -_INT64 <= users < _INT64:
            raise _Rejected(RejectCode.OUT_OF_RANGE, "num_users")
        if tput < 0.0:
            raise _Rejected(RejectCode.OUT_OF_RANGE, "throughput_mbps")
        cell = cells[i_c]
        if cell not in known_cells:
            raise _Rejected(RejectCode.INCONSISTENT_IDS, "cell_id")
        cell, users = str(cell), int(users)
        return ((SUBJECT_THROUGHPUT,
                 (t, cell, length, tput, rbur, users, source)),
                (SUBJECT_INTERFERENCE, (t, cell, coll, users, source)),
                (SUBJECT_ENERGY, (t, cell, length, rbur, power,
                                  power * length / 3600.0, source)))
    return check




class NaiveWarehouse:
    """Rows per subject and hour bucket, admitted by the row path's
    `Warehouse.load`: one record at a time against the running clock."""

    def __init__(self, specs):
        self.specs = {s.name: s for s in specs}
        self.buckets = {s.name: {} for s in specs}  # name -> hour -> rows
        self.appended = {s.name: 0 for s in specs}
        self.clock_s = 0.0
        self._lead_refused = False

    def load(self, records) -> list[int]:
        """Records of (subject, row) pairs; the indexes of the refused."""
        clock, lead_refused = self.clock_s, self._lead_refused
        taken = any(self.appended.values())
        refused = []
        for i, record in enumerate(records):
            rows, t_max, refusal = [], clock, None
            for name, row in record:
                spec = self.specs[name]
                t = row[[c.name for c in spec.columns].index("t_s")]
                retention_s = spec.retention_hours * 3600.0
                if refusal is None:
                    if t < clock - retention_s:
                        refusal = "late"
                    elif (t > clock + 2 * retention_s and taken
                          and not lead_refused):
                        refusal = "ahead"
                rows.append((name, tuple(row)))
                t_max = max(t_max, t)
            if refusal is not None:
                refused.append(i)
                lead_refused = lead_refused or refusal == "ahead"
                continue
            for name, row in rows:
                spec = self.specs[name]
                t = row[[c.name for c in spec.columns].index("t_s")]
                self.buckets[name].setdefault(int(t // 3600), []).append(row)
                self.appended[name] += 1
            if rows:
                clock, lead_refused, taken = t_max, False, True
        self.clock_s, self._lead_refused = clock, lead_refused
        return refused

    def expire(self, now_s: float) -> None:
        """Drop the hours that `Warehouse.migrate_tiers(now_s)` expires."""
        for name, buckets in self.buckets.items():
            retention_s = self.specs[name].retention_hours * 3600.0
            for bucket in [b for b in buckets
                           if now_s - (b + 1) * 3600.0 >= retention_s]:
                del buckets[bucket]

    def scan(self, subject: str) -> list[tuple]:
        """A subject's rows by hour, each hour's rows in load order."""
        buckets = self.buckets[subject]
        return [row for b in sorted(buckets) for row in buckets[b]]


class NaivePipeline:
    """The row path's batch ingest: dedup, check and load row by row."""

    def __init__(self, warehouse: NaiveWarehouse, known_cells,
                 hash_key: bytes):
        self.warehouse = warehouse
        self.known_cells = set(known_cells)
        self.hash_key = hash_key
        self._seen: set = set()
        self._auto_seq: dict = {}
        self._checkers: dict = {}
        self._lock = threading.Lock()
        self.counters = {"ingested": 0, "duplicates": 0, "kept": 0,
                         "rejected": 0, "files_rejected": 0}
        self.rejects: list = []

    def ingest_rows(self, header, rows) -> tuple[int, list]:
        rows = iter(rows)
        accepted, line_rejects = 0, []
        while batch := list(islice(rows, BATCH_ROWS)):
            n, rejects = self._ingest(header, batch)
            accepted += n
            line_rejects += rejects
        return accepted, line_rejects

    def _ingest(self, header, rows, record: RawRecord | None = None
                ) -> tuple[int, list[RejectReason]]:
        """Parse, dedup, check, load and count one batch of (line_no, cells)
        rows; returns (records not duplicates, line rejects).  `record` is
        the RawRecord the batch's one row was made from, if any."""
        check = self._checkers.setdefault(header, row_checker(
            header, self.known_cells, self.hash_key))
        width, enveloped = len(header.columns), header.enveloped
        line_rejects, fresh, unknown = [], [], None
        with self._lock:
            seen, duplicates = self._seen, 0
            for line_no, cells in rows:
                if len(cells) != width:
                    line_rejects.append(_reject(RejectCode.UNPARSABLE_VALUE,
                                                None, cells, line_no))
                    continue
                if enveloped:
                    try:
                        seq = int(cells[1])
                    except ValueError:
                        line_rejects.append(_reject(
                            RejectCode.UNPARSABLE_VALUE, "seq_no", cells,
                            line_no))
                        continue
                    source = cells[0]
                    if source not in SOURCE_TAGS:
                        unknown = source
                        break
                else:
                    source = header.default_source
                    seq = self._auto_seq.get(source, 0)
                    self._auto_seq[source] = seq + 1
                key = (source, seq)
                if key in seen:
                    duplicates += 1
                    continue
                seen.add(key)
                fresh.append((source, seq, cells))
            self.counters["duplicates"] += duplicates
            self.counters["ingested"] += len(fresh)

        loads, bad = [], []  # bad: (position in fresh, code, field)
        for i, (source, _, cells) in enumerate(fresh):
            try:
                loads.append(check(cells, source))
            except _Rejected as r:
                bad.append((i, *r.args))
        refused = self.warehouse.load(loads) if loads else []
        if refused:  # older than the warehouse keeps, or far ahead of it
            cleaned = {i for i, _, _ in bad}
            loaded = [i for i in range(len(fresh)) if i not in cleaned]
            bad += [(loaded[j], RejectCode.OUT_OF_RANGE, "t_s")
                    for j in refused]
            bad.sort()
        offset = 2 if enveloped else 0
        rejects = []
        for i, code, field in bad:
            source, seq, cells = fresh[i]
            raw = record or RawRecord(source, seq, dict(zip(
                header.payload, cells[offset:])))
            rejects.append((raw, _reject(code, field, raw.payload.values())))
        with self._lock:
            self.counters["kept"] += len(fresh) - len(bad)
            self.counters["rejected"] += len(bad)
            self.rejects += rejects
        if unknown is not None:
            raise UnknownSource(f"source {unknown!r} not registered")
        return len(fresh), line_rejects

