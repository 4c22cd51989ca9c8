"""Multi-agent Q-learning over beam patterns and handover offsets.

One agent per cell. Each action picks a (broadcast pattern, cell offset)
pair; all agents share the network-level reward -collision ratio, so they
learn to keep their broadcast beams out of each other's user clusters.
Observations are built from the previous window's measurements, as arrays
of serving cell ids and positions: octant counts of the cell's attached
users plus a summary of the neighbor cells' current pattern and offset.
"""
from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..simcore import engine
from ..simcore.radio import wrap_deg
from ..simcore.types import ALLOWED_CIO_DB, N_PATTERNS, Scenario
from .mlp import Mlp, momentum_step

# Joint action table: 4 patterns x 3 handover offsets.
ACTION_TABLE = tuple((p, cio) for p in range(N_PATTERNS)
                     for cio in ALLOWED_CIO_DB)
N_ACTIONS = len(ACTION_TABLE)
N_SECTORS = 8
USER_COUNT_SCALE = 10.0


def obs_dim(n_cells: int) -> int:
    """Octant user counts plus (pattern, offset) of every neighbor cell."""
    return N_SECTORS + 2 * max(n_cells - 1, 1)


OBS_DIM = obs_dim(2)


@dataclass
class DqnConfig:
    gamma: float = 0.9
    replay_capacity: int = 10_000
    target_sync_every: int = 200
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    learning_rate: float = 0.005
    batch_size: int = 32
    hidden: tuple = (64, 64)
    episode_len: int = 50
    window_len_s: float = 3600.0


class DqnAgent:
    def __init__(self, obs_dim: int = OBS_DIM, allowed_actions=None,
                 config: DqnConfig | None = None, seed: int = 0):
        self.config = config or DqnConfig()
        self.allowed = tuple(allowed_actions) if allowed_actions is not None \
            else tuple(range(N_ACTIONS))
        # 0 on allowed actions and -inf elsewhere, added to Q-values
        self._mask = np.full(N_ACTIONS, -np.inf)
        self._mask[list(self.allowed)] = 0.0
        self.q = Mlp([obs_dim, *self.config.hidden, N_ACTIONS],
                     head="linear", seed=seed)
        self.target = self.q.copy()
        self.replay = deque(maxlen=self.config.replay_capacity)
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

    def learn(self, rng) -> float | None:
        """One TD(0) update on a replay minibatch; returns the loss."""
        if len(self.replay) < self.config.batch_size:
            return None
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
        loss, gw, gb, _ = self.q.loss_and_grads(obs, targets)
        momentum_step(self.q, self._velocity, gw, gb,
                      -self.config.learning_rate)
        return loss

    def sync_target(self) -> None:
        self.target = self.q.copy()


def observe(scenario: Scenario, cell_index: int, cell_ids,
            positions) -> np.ndarray:
    """Observation for one cell from the last window's measurements, given
    by their serving cell ids and (n, 2) positions."""
    cell = scenario.cells[cell_index]
    mine = np.asarray(cell_ids, dtype=object) == cell.cell_id
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)[mine]
    rel = wrap_deg(np.degrees(np.arctan2(pos[:, 1] - cell.site_pos[1],
                                         pos[:, 0] - cell.site_pos[0]))
                   - cell.azimuth_deg)
    sector = ((rel + 180.0) // (360.0 / N_SECTORS)).astype(int) % N_SECTORS
    counts = np.bincount(sector, minlength=N_SECTORS).astype(float)
    others = [c for i, c in enumerate(scenario.cells) if i != cell_index]
    neighbor = []
    for c in others:
        neighbor += [c.pattern_id / (N_PATTERNS - 1),
                     c.cio_db / max(ALLOWED_CIO_DB)]
    if not others:
        neighbor = [0.0, 0.0]
    return np.concatenate([counts / USER_COUNT_SCALE, neighbor])


def _observe_all(scenario: Scenario, meas) -> dict[str, np.ndarray]:
    """Every cell's observation from one window's measurement records."""
    ids = np.array([m.cell_id for m in meas], dtype=object)
    pos = np.reshape([m.pos for m in meas], (-1, 2))
    return {c.cell_id: observe(scenario, i, ids, pos)
            for i, c in enumerate(scenario.cells)}


def network_collision(kpis) -> float:
    """User-weighted collision ratio across all cells in one window."""
    users = sum(k.num_users for k in kpis)
    if users == 0:
        return 0.0
    return sum(k.collision_ratio * k.num_users for k in kpis) / users


def apply_actions(scenario: Scenario, actions: dict[str, int]) -> Scenario:
    out = scenario
    for cell_id, a in actions.items():
        pattern, cio = ACTION_TABLE[a]
        out = engine.apply_command(out, cell_id,
                                   {"pattern_id": pattern, "cio_db": cio})
    return out


def dqn_train(scenario: Scenario, episodes: int,
              config: DqnConfig | None = None,
              allowed_actions: dict[str, list[int]] | None = None,
              seed: int = 0):
    """Train one agent per cell; returns (agents, per-episode mean reward)."""
    config = config or DqnConfig()
    allowed_actions = allowed_actions or {}
    agents = {c.cell_id: DqnAgent(obs_dim(len(scenario.cells)),
                                  allowed_actions.get(c.cell_id),
                                  config, seed=seed + i)
              for i, c in enumerate(scenario.cells)}
    rng = np.random.default_rng(seed)
    total_steps = episodes * config.episode_len
    explore_steps = max(1, total_steps // 2)
    curve = []
    global_step = 0
    t = 0.0
    for _ in range(episodes):
        state = copy.deepcopy(scenario)
        meas, _ = engine.step(state, config.window_len_s, t)
        obs = _observe_all(state, meas)
        ep_rewards = []
        for _ in range(config.episode_len):
            frac = min(global_step / explore_steps, 1.0)
            eps = config.epsilon_start \
                + frac * (config.epsilon_end - config.epsilon_start)
            actions = {cid: agents[cid].act(obs[cid], eps, rng)
                       for cid in agents}
            state = apply_actions(state, actions)
            t += config.window_len_s
            meas, kpis = engine.step(state, config.window_len_s, t)
            reward = -network_collision(kpis)
            next_obs = _observe_all(state, meas)
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


def greedy_actions(agents: dict[str, DqnAgent], scenario: Scenario,
                   t_s: float, window_len_s: float = 3600.0) -> dict[str, int]:
    meas, _ = engine.step(scenario, window_len_s, t_s)
    return {cid: agents[cid].greedy(obs)
            for cid, obs in _observe_all(scenario, meas).items()}


def greedy_rollout(agents: dict[str, DqnAgent], scenario: Scenario,
                   n_windows: int, t0_s: float = 0.0,
                   window_len_s: float = 3600.0):
    """Run the greedy policies in closed loop for n_windows.

    Each window every agent observes the current state (including the
    neighbors' latest pattern/offset choices) and re-acts, so the joint
    policy settles into its own equilibrium. Returns (mean collision over
    the windows, actions of the final window).
    """
    state = copy.deepcopy(scenario)
    meas, _ = engine.step(state, window_len_s, t0_s)
    collisions = []
    actions: dict[str, int] = {}
    for w in range(n_windows):
        actions = {cid: agents[cid].greedy(obs)
                   for cid, obs in _observe_all(state, meas).items()}
        state = apply_actions(state, actions)
        meas, kpis = engine.step(state, window_len_s,
                                 t0_s + (w + 1) * window_len_s)
        collisions.append(network_collision(kpis))
    return float(np.mean(collisions)), actions


def evaluate_joint(scenario: Scenario, actions: dict[str, int], t0_s: float,
                   n_windows: int = 4, window_len_s: float = 3600.0) -> float:
    """Mean reward of a fixed joint action over evaluation windows."""
    state = apply_actions(copy.deepcopy(scenario), actions)
    rewards = []
    for w in range(n_windows):
        _, kpis = engine.step(state, window_len_s, t0_s + w * window_len_s)
        rewards.append(-network_collision(kpis))
    return float(np.mean(rewards))
