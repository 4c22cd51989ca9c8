"""Multi-agent Q-learning over beam patterns and handover offsets.

One agent per cell. Each action picks a (broadcast pattern, cell offset)
pair; all agents share the network-level reward -collision ratio, so they
learn to keep their broadcast beams out of each other's user clusters.
Observations are built from the previous window's measurements, as arrays
of serving cell ids and positions: octant counts of the cell's attached
users plus a summary of the neighbor cells' current pattern and offset.
The agents are one `DqnAgents`: every cell's networks, action mask and
replay ring stacked on one agent axis, trained and queried in one pass.
"""
from __future__ import annotations

import copy
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


# fixed by design: the discount, the exploration schedule's ends, the
# Q-network's hidden layers and the environment's window
GAMMA = 0.9
EPSILON_START = 1.0
EPSILON_END = 0.05
HIDDEN = (64, 64)
WINDOW_LEN_S = 3600.0


@dataclass
class DqnConfig:
    replay_capacity: int = 10_000
    target_sync_every: int = 200
    learning_rate: float = 0.005
    batch_size: int = 32
    episode_len: int = 50


class DqnAgents:
    """One Q-learning agent per cell, trained as one: their Q and target
    networks stacked on a leading agent axis, their momentum, action masks
    and replay rings, row j of every array being the agent of cell_ids[j].
    Each call takes one observation per agent, (k, dim), and does every
    agent's work in one pass, with each agent's arithmetic exactly that of
    its own pass; the minibatches are drawn from the one rng in agent
    order.  Agent j's network is seeded with seed + j, and it may take the
    actions allowed_actions[cell_ids[j]], or all of them if not given."""

    def __init__(self, cell_ids, obs_dim: int,
                 allowed_actions: dict[str, list[int]] | None = None,
                 config: DqnConfig | None = None, seed: int = 0):
        self.cell_ids = list(cell_ids)
        self.config = config or DqnConfig()
        allowed_actions = allowed_actions or {}
        self.allowed = [tuple(allowed_actions.get(cid, range(N_ACTIONS)))
                        for cid in self.cell_ids]
        self.q = Mlp.stack([Mlp([obs_dim, *HIDDEN, N_ACTIONS], seed=seed + j)
                            for j in range(len(self.cell_ids))])
        self.target = copy.deepcopy(self.q)
        # 0 on allowed actions and -inf elsewhere, added to Q-values
        self.masks = np.full((len(self.cell_ids), N_ACTIONS), -np.inf)
        for mask, allowed in zip(self.masks, self.allowed):
            mask[list(allowed)] = 0.0
        self.velocity = [np.zeros_like(p)
                         for p in self.q.weights + self.q.biases]
        k, cap = len(self.cell_ids), self.config.replay_capacity
        # each row a ring of `size` transitions, the next written at `head`
        self.ring = {"obs": np.empty((k, cap, obs_dim)),
                     "next_obs": np.empty((k, cap, obs_dim)),
                     "actions": np.empty((k, cap), dtype=int),
                     "rewards": np.empty((k, cap)),
                     "size": np.zeros(k, dtype=int),
                     "head": np.zeros(k, dtype=int)}

    def q_values(self, obs) -> np.ndarray:
        """Each agent's Q-values for its row of obs (k, dim), -inf on the
        actions it may not take: (k, N_ACTIONS)."""
        qvals = self.q.predict(np.asarray(obs, dtype=float)[:, None, :])
        return qvals[:, 0] + self.masks

    def greedy(self, obs) -> list[int]:
        """Each agent's best allowed action for its row of obs (k, dim)."""
        return self.q_values(obs).argmax(axis=1).tolist()

    def act(self, obs, epsilon: float, rng) -> list[int]:
        """Epsilon-greedy actions, agent by agent: a uniform allowed action
        with probability epsilon, else the greedy one."""
        return [int(rng.choice(allowed)) if rng.random() < epsilon else g
                for allowed, g in zip(self.allowed, self.greedy(obs))]

    def remember(self, obs, actions, reward: float, next_obs) -> None:
        """Each agent's transition, its row of obs and next_obs (k, dim)."""
        ring, cap = self.ring, self.config.replay_capacity
        agent, head = np.arange(len(self.cell_ids)), ring["head"]
        ring["obs"][agent, head] = obs
        ring["next_obs"][agent, head] = next_obs
        ring["actions"][agent, head] = actions
        ring["rewards"][agent, head] = reward
        head[...] = (head + 1) % cap
        np.minimum(ring["size"] + 1, cap, out=ring["size"])

    def learn(self, rng):
        """One TD(0) update of every agent on a replay minibatch; returns
        each agent's loss, or None while a ring holds less than a batch."""
        config, ring = self.config, self.ring
        batch, cap = config.batch_size, config.replay_capacity
        if (ring["size"] < batch).any():
            return None
        # index i of a ring is its i-th oldest transition
        idx = np.stack([rng.choice(n, size=batch, replace=False)
                        for n in ring["size"].tolist()])
        slot = (idx + (ring["head"] - ring["size"])[:, None]) % cap
        agent = np.arange(len(self.cell_ids))[:, None]
        q_next = self.target.predict(ring["next_obs"][agent, slot])
        best_next = (q_next + self.masks[:, None, :]).max(axis=-1)
        # the forward pass that gives the gradient gives the targets too
        out, acts = self.q.forward(ring["obs"][agent, slot])
        targets = out.copy()
        targets[agent, np.arange(batch), ring["actions"][agent, slot]] = \
            ring["rewards"][agent, slot] + GAMMA * best_next
        loss, gw, gb = self.q.grads_at(out, acts, targets)
        momentum_step(self.q, self.velocity, gw, gb, -config.learning_rate)
        return loss

    def sync_target(self) -> None:
        for t, q in zip(self.target.weights + self.target.biases,
                        self.q.weights + self.q.biases):
            t[...] = q


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


def observe_all(scenario: Scenario, cell_ids, positions) -> np.ndarray:
    """Every cell's observation of one window's measurements, given as for
    `observe`: (cells, obs_dim)."""
    return np.stack([observe(scenario, i, cell_ids, positions)
                     for i in range(len(scenario.cells))])


def window_collision(w: engine.Window) -> float:
    """User-weighted collision ratio across a window's cells."""
    users = w.num_users.tolist()
    total = sum(users)
    if total == 0:
        return 0.0
    return sum(r * n for r, n in zip(w.collision.tolist(), users)) / total


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
    """Train one agent per cell; returns (DqnAgents, per-episode mean
    reward).  Each step acts, remembers and updates every agent in one
    pass."""
    config = config or DqnConfig()
    agents = DqnAgents([c.cell_id for c in scenario.cells],
                       obs_dim(len(scenario.cells)), allowed_actions, config,
                       seed)
    rng = np.random.default_rng(seed)
    total_steps = episodes * config.episode_len
    explore_steps = max(1, total_steps // 2)
    curve = []
    global_step = 0
    t = 0.0
    for _ in range(episodes):
        state = copy.deepcopy(scenario)
        w = engine.window(state, WINDOW_LEN_S, t)
        obs = observe_all(state, w.serving_ids(), w.pos)
        ep_rewards = []
        for _ in range(config.episode_len):
            frac = min(global_step / explore_steps, 1.0)
            eps = EPSILON_START + frac * (EPSILON_END - EPSILON_START)
            actions = agents.act(obs, eps, rng)
            state = apply_actions(state, dict(zip(agents.cell_ids, actions)))
            t += WINDOW_LEN_S
            w = engine.window(state, WINDOW_LEN_S, t)
            reward = -window_collision(w)
            next_obs = observe_all(state, w.serving_ids(), w.pos)
            agents.remember(obs, actions, reward, next_obs)
            agents.learn(rng)
            obs = next_obs
            ep_rewards.append(reward)
            global_step += 1
            if global_step % config.target_sync_every == 0:
                agents.sync_target()
        curve.append(float(np.mean(ep_rewards)))
    return agents, curve
