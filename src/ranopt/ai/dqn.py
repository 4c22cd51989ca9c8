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
    """One cell's Q-network, target network and replay ring.  A new agent
    is the one row of its own `_Learner`; `dqn_train` joins the agents
    into one learner, and each agent is then its row of that learner."""

    def __init__(self, obs_dim: int = OBS_DIM, allowed_actions=None,
                 config: DqnConfig | None = None, seed: int = 0):
        self.config = config or DqnConfig()
        self.allowed = tuple(allowed_actions) if allowed_actions is not None \
            else tuple(range(N_ACTIONS))
        self.q = Mlp([obs_dim, *self.config.hidden, N_ACTIONS], seed=seed)
        self.target = self.q.copy()
        self._learner = _Learner.of([self])

    def act(self, obs, epsilon: float, rng) -> int:
        return self._learner.act(np.asarray(obs)[None], epsilon, rng)[0]

    def greedy(self, obs) -> int:
        return self._learner.greedy(np.asarray(obs)[None])[0]

    def q_values(self, obs) -> np.ndarray:
        return self._learner.q_values(np.asarray(obs)[None])[0]

    def remember(self, obs, action, reward, next_obs) -> None:
        self._learner.remember(np.asarray(obs)[None], [action], reward,
                               np.asarray(next_obs)[None])

    def learn(self, rng) -> float | None:
        """One TD(0) update on a replay minibatch; returns the loss."""
        loss = self._learner.learn(rng)
        return None if loss is None else float(loss[0])

    def sync_target(self) -> None:
        self._learner.sync_target()


class _Learner:
    """k agents trained as one: their Q and target networks stacked on a
    leading agent axis (each agent's `Mlp` holds views into them), their
    momentum, action masks and replay rings, row j of every array being
    agent j's.  Each call does every agent's work in one pass, with each
    agent's arithmetic exactly that of its own pass; the minibatches are
    drawn from the one rng in agent order."""

    def __init__(self, config: DqnConfig, q: Mlp, target: Mlp, allowed,
                 masks, velocity: list, ring: dict):
        self.config, self.q, self.target = config, q, target
        self.allowed, self.masks = allowed, masks
        self.velocity, self.ring = velocity, ring

    @classmethod
    def of(cls, agents: list[DqnAgent]) -> "_Learner":
        """Stack the agents' networks; each agent then learns through its
        row of the stack."""
        config = agents[0].config
        q = Mlp.stack([a.q for a in agents])
        target = Mlp.stack([a.target for a in agents])
        # 0 on allowed actions and -inf elsewhere, added to Q-values
        masks = np.full((len(agents), N_ACTIONS), -np.inf)
        for mask, a in zip(masks, agents):
            mask[list(a.allowed)] = 0.0
        k, cap = len(agents), config.replay_capacity
        obs_shape = (k, cap, q.layer_sizes[0])
        # each row a ring of `size` transitions, the next written at `head`
        ring = {"obs": np.empty(obs_shape), "next_obs": np.empty(obs_shape),
                "actions": np.empty((k, cap), dtype=int),
                "rewards": np.empty((k, cap)),
                "size": np.zeros(k, dtype=int), "head": np.zeros(k, dtype=int)}
        learner = cls(config, q, target, [a.allowed for a in agents], masks,
                      [np.zeros_like(p) for p in q.weights + q.biases], ring)
        for j, a in enumerate(agents):
            a._learner = learner.row(j)
        return learner

    def row(self, j: int) -> "_Learner":
        """Agent j's learner: views of row j of every array."""
        rows = slice(j, j + 1)
        return _Learner(self.config, _rows(self.q, rows),
                        _rows(self.target, rows), self.allowed[rows],
                        self.masks[rows], [v[rows] for v in self.velocity],
                        {name: a[rows] for name, a in self.ring.items()})

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
        agent, head = np.arange(len(self.allowed)), ring["head"]
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
        agent = np.arange(len(self.allowed))[:, None]
        q_next = self.target.predict(ring["next_obs"][agent, slot])
        best_next = (q_next + self.masks[:, None, :]).max(axis=-1)
        # the forward pass that gives the gradient gives the targets too
        out, acts = self.q.forward(ring["obs"][agent, slot])
        targets = out.copy()
        targets[agent, np.arange(batch), ring["actions"][agent, slot]] = \
            ring["rewards"][agent, slot] + config.gamma * best_next
        loss, gw, gb = self.q.grads_at(out, acts, targets)
        momentum_step(self.q, self.velocity, gw, gb, -config.learning_rate)
        return loss

    def sync_target(self) -> None:
        for t, q in zip(self.target.weights + self.target.biases,
                        self.q.weights + self.q.biases):
            t[...] = q


def _rows(net: Mlp, rows: slice) -> Mlp:
    """A stacked network's rows, as views."""
    out = copy.copy(net)
    out.weights = [W[rows] for W in net.weights]
    out.biases = [b[rows] for b in net.biases]
    return out


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


def _observe_all(scenario: Scenario, w: engine.Window) -> np.ndarray:
    """Every cell's observation of one window, (cells, obs_dim)."""
    ids = w.serving_ids()
    return np.stack([observe(scenario, i, ids, w.pos)
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
    """Train one agent per cell; returns (agents, per-episode mean reward).

    The agents learn as one `_Learner`: each step acts, remembers and
    updates all of them in one pass."""
    config = config or DqnConfig()
    allowed_actions = allowed_actions or {}
    agents = {c.cell_id: DqnAgent(obs_dim(len(scenario.cells)),
                                  allowed_actions.get(c.cell_id),
                                  config, seed=seed + i)
              for i, c in enumerate(scenario.cells)}
    learner = _Learner.of(list(agents.values()))
    rng = np.random.default_rng(seed)
    total_steps = episodes * config.episode_len
    explore_steps = max(1, total_steps // 2)
    curve = []
    global_step = 0
    t = 0.0
    for _ in range(episodes):
        state = copy.deepcopy(scenario)
        obs = _observe_all(state, engine.window(state, config.window_len_s, t))
        ep_rewards = []
        for _ in range(config.episode_len):
            frac = min(global_step / explore_steps, 1.0)
            eps = config.epsilon_start \
                + frac * (config.epsilon_end - config.epsilon_start)
            actions = learner.act(obs, eps, rng)
            state = apply_actions(state, dict(zip(agents, actions)))
            t += config.window_len_s
            w = engine.window(state, config.window_len_s, t)
            reward = -window_collision(w)
            next_obs = _observe_all(state, w)
            learner.remember(obs, actions, reward, next_obs)
            learner.learn(rng)
            obs = next_obs
            ep_rewards.append(reward)
            global_step += 1
            if global_step % config.target_sync_every == 0:
                learner.sync_target()
        curve.append(float(np.mean(ep_rewards)))
    return agents, curve
