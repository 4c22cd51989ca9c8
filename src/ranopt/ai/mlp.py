"""From-scratch multilayer perceptron with rectifier hidden layers.

The output layer is linear and the loss is the mean squared error.  The
network is the DQN's Q-network: `DqnAgents` trains it, from the gradients
of `grads_at` and the updates of `momentum_step`.

`stack` joins k networks of one shape into one whose parameters carry a
leading network axis.  Forward and backward passes of the stack take
(k, batch, features) inputs and give every network exactly what its own
pass would.
"""
from __future__ import annotations

import copy

import numpy as np

MOMENTUM = 0.9


class Mlp:
    def __init__(self, layer_sizes, seed: int = 0):
        self.layer_sizes = list(layer_sizes)
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

    def grads_at(self, out, acts, Y):
        """(loss, weight grads, bias grads) of the forward pass that gave
        (out, acts) and targets Y.  For a stack, the loss is an array of
        each network's loss."""
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

    @classmethod
    def stack(cls, models: list["Mlp"]) -> "Mlp":
        """One network of the models' parameters stacked on a leading
        axis."""
        out = copy.copy(models[0])
        out.weights = [np.stack(w) for w in zip(*(m.weights for m in models))]
        out.biases = [np.stack(b) for b in zip(*(m.biases for m in models))]
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
