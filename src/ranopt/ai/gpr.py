"""Exact Gaussian process regression with a squared-exponential kernel.

Inputs are rows of [pos_x m, pos_y m, azimuth deg, tilt deg]; targets are
RSRP in dBm. The prior mean is the training-target average, so predictions
revert to that offset far from the data.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ..errors import NumericalFailure

DEFAULT_LENGTH_SCALES = (25.0, 25.0, 5.0, 2.0)
JITTER = 1e-6
PREDICT_CHUNK_ROWS = 256


class GprRegressor:
    def __init__(self, length_scales=DEFAULT_LENGTH_SCALES,
                 signal_std: float = 8.0, noise_std: float = 1.0):
        self.length_scales = np.asarray(length_scales, dtype=float)
        self.signal_std = float(signal_std)
        self.noise_std = float(noise_std)
        self._X = None

    def get_params(self) -> dict:
        return {"length_scales": self.length_scales.tolist(),
                "signal_std": self.signal_std, "noise_std": self.noise_std}

    def _kernel(self, A, B):
        a = A / self.length_scales
        b = B / self.length_scales
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return self.signal_std ** 2 * np.exp(-0.5 * d2)

    def fit(self, X, y) -> "GprRegressor":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] < 2:
            raise ValueError("need at least 2 samples")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("non-finite training data")
        if X.shape[1] != self.length_scales.size:
            raise ValueError(f"expected {self.length_scales.size} input dims")
        K = self._kernel(X, X)
        K[np.diag_indices_from(K)] += self.noise_std ** 2 + JITTER
        try:
            self._chol = cho_factor(K, lower=True)
        except np.linalg.LinAlgError as e:
            raise NumericalFailure(f"kernel factorization failed: {e}")
        self._X = X
        self._y_mean = float(np.mean(y))
        self._alpha = cho_solve(self._chol, y - self._y_mean)
        return self

    def predict(self, X_query, return_var: bool = False):
        if self._X is None:
            raise ValueError("model is not fitted")
        Xq = np.atleast_2d(np.asarray(X_query, dtype=float))
        if Xq.shape[1] != self.length_scales.size:
            raise ValueError(f"expected {self.length_scales.size} query dims")
        mean, var = np.empty(Xq.shape[0]), np.empty(Xq.shape[0])
        # query rows go in chunks, so _kernel's (rows, n, 4) broadcast
        # stays bounded however many rows a caller batches
        for i in range(0, Xq.shape[0], PREDICT_CHUNK_ROWS):
            rows = slice(i, i + PREDICT_CHUNK_ROWS)
            Ks = self._kernel(Xq[rows], self._X)
            mean[rows] = self._y_mean + Ks @ self._alpha
            if return_var:
                v = cho_solve(self._chol, Ks.T)
                var[rows] = self.signal_std ** 2 - np.einsum("ij,ji->i",
                                                             Ks, v)
        if not return_var:
            return mean
        return mean, np.maximum(var, 0.0)

    def to_dict(self) -> dict:
        return {"kind": "gpr", **self.get_params(),
                "X": self._X.tolist(), "y_mean": self._y_mean,
                "alpha": self._alpha.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "GprRegressor":
        m = cls(d["length_scales"], d["signal_std"], d["noise_std"])
        X = np.array(d["X"])
        K = m._kernel(X, X)
        K[np.diag_indices_from(K)] += m.noise_std ** 2 + JITTER
        m._chol = cho_factor(K, lower=True)
        m._X = X
        m._y_mean = d["y_mean"]
        m._alpha = np.array(d["alpha"])
        return m
