"""Naive reference implementations kept as oracles for the optimized code:

* `run_aggregates`, the row-tuple query path, for the warehouse's columnar
  engine: filter, group and aggregate Python row tuples one by one, with
  the percentiles `np.percentile` computes;
* `attach_and_rate`, the per-cell loop that rated one network at a time,
  frozen with its SINR and scheduler arithmetic inlined, for the batched
  kernel in `ranopt.simcore.scheduler`;
* `LinearConfigLog`, the config log that re-sorts on every record and
  scans every entry on lookup, for `ranopt.ai.throughput.ConfigLog`;
* `observe_per_record`, the DQN observation that counted a cell's users
  one measurement record at a time, for `ranopt.ai.dqn.observe`;
* `step_per_user`, the simulator window built one user and one record at
  a time, for `ranopt.simcore.engine.step`, the record view of the
  columnar window;
* `dqn_train_per_agent`, the DQN trainer that updated one agent at a time
  from a deque replay and observed the window's records, for the stacked
  learner of `ranopt.ai.dqn.dqn_train`.
"""
from __future__ import annotations

import copy
from collections import deque

import numpy as np

from ranopt.ai.dqn import (N_ACTIONS, N_SECTORS, USER_COUNT_SCALE, DqnConfig,
                           apply_actions, obs_dim)
from ranopt.ai.mlp import Mlp, momentum_step
from ranopt.simcore import energy as energy_model
from ranopt.simcore.engine import hour_bucket, shadow_fields
from ranopt.simcore.radio import (best_beam_rsrp_dbm, dbm_to_mw, noise_dbm,
                                  wrap_deg)
from ranopt.simcore.scheduler import attach_and_rate as batched_attach
from ranopt.simcore.scheduler import collision_ratio
from ranopt.simcore.types import (ALLOWED_CIO_DB, N_PATTERNS, RATE_CAP_MBPS,
                                  SINR_MAX_DB, SINR_MIN_DB, KpiRecord,
                                  MeasurementRecord, UserState)
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


class PerAgentDqn:
    """One DQN agent with a deque replay, updated on its own."""

    def __init__(self, obs_dim: int, allowed_actions, config: DqnConfig,
                 seed: int):
        self.config = config
        self.allowed = tuple(allowed_actions) if allowed_actions is not None \
            else tuple(range(N_ACTIONS))
        self._mask = np.full(N_ACTIONS, -np.inf)
        self._mask[list(self.allowed)] = 0.0
        self.q = Mlp([obs_dim, *config.hidden, N_ACTIONS], head="linear",
                     seed=seed)
        self.target = self.q.copy()
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
            rewards + self.config.gamma * best_next
        _, gw, gb, _ = self.q.loss_and_grads(obs, targets)
        momentum_step(self.q, self._velocity, gw, gb,
                      -self.config.learning_rate)

    def sync_target(self) -> None:
        self.target = self.q.copy()


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
        meas, _ = step_per_user(state, config.window_len_s, t)
        obs = observe_all(state, meas)
        ep_rewards = []
        for _ in range(config.episode_len):
            frac = min(global_step / explore_steps, 1.0)
            eps = config.epsilon_start \
                + frac * (config.epsilon_end - config.epsilon_start)
            actions = {cid: agents[cid].act(obs[cid], eps, rng)
                       for cid in agents}
            state = apply_actions(state, actions)
            t += config.window_len_s
            meas, kpis = step_per_user(state, config.window_len_s, t)
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
