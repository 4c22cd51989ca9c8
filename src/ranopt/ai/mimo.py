"""Multi-user downlink power allocation with a learned rate estimator.

A rate-estimator network (state + power split -> sum rate) is trained on the
analytic multi-beam SINR rate. A policy network maps the channel state to a
softmax power split and is pre-trained to imitate the best random split, then
fine-tuned by pushing gradients of the frozen estimator back through the
policy. The better of {pre-trained, fine-tuned} under true evaluation is kept.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mlp import Mlp, TrainConfig, _softmax_backward, momentum_step

K_BEAMS = 3
TOTAL_POWER = 1.0
NOISE_POWER = 0.1


@dataclass
class MimoState:
    """gains[j, k] couples transmit beam j into user k's receiver."""
    gains: np.ndarray  # (K, K)

    def features(self) -> np.ndarray:
        return self.gains.ravel()


def theory_rate(gains, power, noise: float = NOISE_POWER) -> float:
    """Sum of log2(1 + SINR_k) over users for a given power split."""
    g = np.asarray(gains, dtype=float)
    p = np.asarray(power, dtype=float)
    k = g.shape[0]
    total = 0.0
    for u in range(k):
        signal = g[u, u] * p[u]
        interf = sum(g[j, u] * p[j] for j in range(k) if j != u)
        total += np.log2(1.0 + signal / (interf + noise))
    return float(total)


def sample_states(n: int, seed: int, k: int = K_BEAMS) -> list[MimoState]:
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        g = rng.uniform(0.0, 0.3, (k, k))
        g[np.diag_indices(k)] = rng.uniform(0.5, 2.0, k)
        states.append(MimoState(gains=g))
    return states


def best_random_split(state: MimoState, n_draws: int, rng,
                      total_power: float = TOTAL_POWER) -> np.ndarray:
    """The best of n random power splits under the analytic rate."""
    splits = rng.dirichlet(np.ones(state.gains.shape[0]), size=n_draws)
    rates = [theory_rate(state.gains, total_power * s) for s in splits]
    return total_power * splits[int(np.argmax(rates))]


def estimator_inputs(states, fractions) -> np.ndarray:
    return np.column_stack([np.stack([s.features() for s in states]),
                            np.atleast_2d(fractions)])


def train_rate_estimator(states, seed: int = 0, draws_per_state: int = 8
                         ) -> Mlp:
    """Fit state + power fractions -> analytic sum rate."""
    rng = np.random.default_rng(seed)
    X_rows, y_rows = [], []
    for s in states:
        fracs = rng.dirichlet(np.ones(s.gains.shape[0]), size=draws_per_state)
        for f in fracs:
            X_rows.append(np.concatenate([s.features(), f]))
            y_rows.append(theory_rate(s.gains, TOTAL_POWER * f))
    k = states[0].gains.shape[0]
    net = Mlp([k * k + k, 64, 64, 1], head="linear", seed=seed)
    net.fit(np.stack(X_rows), np.array(y_rows)[:, None],
            TrainConfig(learning_rate=0.01, epochs=300, batch_size=64,
                        seed=seed))
    return net


def pretrain_policy(states, seed: int = 0, n_draws: int = 200) -> Mlp:
    """Imitate the best random split with a softmax policy network."""
    rng = np.random.default_rng(seed)
    k = states[0].gains.shape[0]
    X = np.stack([s.features() for s in states])
    Y = np.stack([best_random_split(s, n_draws, rng) / TOTAL_POWER
                  for s in states])
    net = Mlp([k * k, 32, 32, k], head="softmax_mse", seed=seed)
    net.fit(X, Y, TrainConfig(learning_rate=0.05, epochs=400, batch_size=32,
                              seed=seed))
    return net


def policy_split(policy: Mlp, state: MimoState,
                 total_power: float = TOTAL_POWER) -> np.ndarray:
    return total_power * policy.predict(state.features()[None, :])[0]


def mean_estimated_rate(estimator: Mlp, policy: Mlp, states) -> float:
    fracs = policy.predict(np.stack([s.features() for s in states]))
    return float(np.mean(estimator.predict(estimator_inputs(states, fracs))))


def mean_true_rate(policy: Mlp, states) -> float:
    return float(np.mean([theory_rate(s.gains, policy_split(policy, s))
                          for s in states]))


def finetune_policy(estimator: Mlp, policy: Mlp, states, steps: int = 200,
                    lr: float = 0.01, batch_size: int = 32, seed: int = 0
                    ) -> Mlp:
    """Gradient-ascend the estimator's predicted rate through the policy.

    The estimator stays frozen; only the returned policy copy is updated.
    If the update does not improve the estimated rate on the training states,
    the pre-trained policy is returned unchanged.
    """
    tuned = policy.copy()
    if steps <= 0 or not states:
        return tuned
    rng = np.random.default_rng(seed)
    feats = np.stack([s.features() for s in states])
    k = policy.layer_sizes[-1]
    velocity: list = []
    for _ in range(steps):
        idx = rng.choice(len(states), size=min(batch_size, len(states)),
                         replace=False)
        Xb = feats[idx]
        fracs, acts = tuned.forward(Xb)
        est_in = np.column_stack([Xb, fracs])
        # d(rate)/d(fraction) through the frozen estimator
        d_est_in = estimator.input_gradient(est_in, np.ones((len(idx), 1)))
        d_frac = d_est_in[:, -k:] / len(idx)
        delta = _softmax_backward(fracs, d_frac)
        tuned.backprop_from_delta(acts, delta, accumulate=True)
        momentum_step(tuned, velocity, tuned._gw, tuned._gb, lr)
    if mean_estimated_rate(estimator, tuned, states) \
            < mean_estimated_rate(estimator, policy, states):
        return policy.copy()
    return tuned


def select_policy(pretrained: Mlp, finetuned: Mlp, eval_states
                  ) -> tuple[Mlp, float, float]:
    """Keep the better policy under true analytic evaluation."""
    r_pre = mean_true_rate(pretrained, eval_states)
    r_fine = mean_true_rate(finetuned, eval_states)
    return (finetuned if r_fine >= r_pre else pretrained), r_pre, r_fine
