"""From-scratch multilayer perceptron with rectifier hidden layers.

The output layer is linear and the loss is the mean squared error.
Training is mini-batch gradient descent with momentum.

`stack` joins k networks of one shape into one whose parameters carry a
leading network axis, and makes each network's parameters views into it.
Forward and backward passes of the stack take (k, batch, features) inputs
and give every network exactly what its own pass would.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericalFailure

MOMENTUM = 0.9


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0


class Mlp:
    def __init__(self, layer_sizes, seed: int = 0):
        self.layer_sizes = list(layer_sizes)
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / n_in)
            self.weights.append(rng.normal(0.0, scale, (n_in, n_out)))
            # small nonzero bias keeps pre-activations off the rectifier kink
            self.biases.append(rng.normal(0.0, 0.01, n_out))

    # -- forward --------------------------------------------------------
    def forward(self, X):
        """Returns (output, per-layer activations for backprop)."""
        a = np.atleast_2d(np.asarray(X, dtype=float))
        acts = [a]
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ W + b[..., None, :]
            a = np.maximum(z, 0.0) if i < len(self.weights) - 1 else z
            acts.append(a)
        return a, acts

    def predict(self, X):
        return self.forward(X)[0]

    # -- loss and gradients ---------------------------------------------
    def _target(self, Y, out):
        """Y in the output's shape: a 1-D Y of a one-output net is a column."""
        return np.atleast_2d(Y).reshape(out.shape)

    def loss(self, X, Y) -> float:
        out, _ = self.forward(X)
        return float(np.mean((out - self._target(Y, out)) ** 2))

    def loss_and_grads(self, X, Y):
        """(loss, weight grads, bias grads)."""
        return self.grads_at(*self.forward(X), Y)

    def grads_at(self, out, acts, Y):
        """`loss_and_grads` of the forward pass that gave (out, acts).  For
        a stack, the loss is an array of each network's loss."""
        target = self._target(Y, out)
        sq = (out - target) ** 2
        loss = float(np.mean(sq)) if out.ndim == 2 \
            else np.mean(sq, axis=(-2, -1))
        delta = 2.0 * (out - target) / (out.shape[-2] * out.shape[-1])
        gw = [None] * len(self.weights)
        gb = [None] * len(self.biases)
        for i in reversed(range(len(self.weights))):
            gw[i] = np.swapaxes(acts[i], -1, -2) @ delta
            gb[i] = delta.sum(axis=-2)
            if i > 0:
                delta = (delta @ np.swapaxes(self.weights[i], -1, -2)) \
                    * (acts[i] > 0.0)
        return loss, gw, gb

    # -- training -------------------------------------------------------
    def fit(self, X, Y, config: TrainConfig) -> float:
        """Seeded mini-batch SGD with momentum; returns the final loss."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.asarray(Y)
        n = X.shape[0]
        if n < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(config.seed)
        velocity: list = []
        for _ in range(config.epochs):
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = order[start:start + config.batch_size]
                loss, gw, gb = self.loss_and_grads(X[idx], Y[idx])
                if not np.isfinite(loss):
                    raise NumericalFailure(
                        f"non-finite training loss {loss} "
                        f"(lr={config.learning_rate}, layers={self.layer_sizes})")
                momentum_step(self, velocity, gw, gb, -config.learning_rate)
        final = self.loss(X, Y)
        if not np.isfinite(final):
            raise NumericalFailure("non-finite final loss")
        return final

    # -- (de)serialization ----------------------------------------------
    def to_dict(self) -> dict:
        return {"kind": "mlp", "layer_sizes": self.layer_sizes,
                "seed": self.seed,
                "weights": [W.tolist() for W in self.weights],
                "biases": [b.tolist() for b in self.biases]}

    @classmethod
    def from_dict(cls, d: dict) -> "Mlp":
        m = cls(d["layer_sizes"], seed=d.get("seed", 0))
        m.weights = [np.array(W) for W in d["weights"]]
        m.biases = [np.array(b) for b in d["biases"]]
        return m

    def copy(self) -> "Mlp":
        return Mlp.from_dict(self.to_dict())

    @classmethod
    def stack(cls, models: list["Mlp"]) -> "Mlp":
        """One network of the models' parameters stacked on a leading axis;
        each model's parameters become views into it, so updating the stack
        updates every model."""
        out = copy.copy(models[0])
        out.weights = [np.stack(w) for w in zip(*(m.weights for m in models))]
        out.biases = [np.stack(b) for b in zip(*(m.biases for m in models))]
        for j, m in enumerate(models):
            m.weights = [W[j] for W in out.weights]
            m.biases = [b[j] for b in out.biases]
        return out


def momentum_step(model: Mlp, velocity: list, gw, gb, step: float) -> None:
    """One momentum update in place: v = MOMENTUM * v + step * g, then each
    parameter moves by its v.  A negative step (-learning rate) descends
    the gradient, a positive one ascends it.  `velocity` holds v between
    calls, updated in place; pass an empty list to start from rest."""
    params = model.weights + model.biases
    if not velocity:
        velocity.extend(np.zeros_like(p) for p in params)
    for v, p, g in zip(velocity, params, gw + gb):
        v *= MOMENTUM
        v += step * g
        p += v


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
                up = model.loss(X, Y)
            else:
                down = model.loss(X, Y)
        grad[j] = (up - down) / (2.0 * eps)
    set_flat_params(model, flat)
    return grad


def gradient_check(model: Mlp, X, Y, eps: float = 1e-6) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Coordinates where a rectifier kink sits inside the probe interval make
    the finite difference meaningless; they are detected by disagreement
    between two probe widths and excluded.
    """
    _, gw, gb = model.loss_and_grads(X, Y)
    analytic = np.concatenate([g.ravel() for g in gw]
                              + [g.ravel() for g in gb])
    fd_a = numerical_gradient(model, X, Y, eps)
    fd_b = numerical_gradient(model, X, Y, eps / 4.0)
    denom = np.maximum(np.abs(fd_a), 1e-6)
    stable = np.abs(fd_a - fd_b) / denom < 1e-5
    rel = np.abs(analytic - fd_a) / denom
    return float(rel[stable].max())
