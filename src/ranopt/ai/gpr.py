"""Exact Gaussian process regression with a squared-exponential kernel.

Inputs are rows with one column per length scale; the radio maps pass
positions [pos_x m, pos_y m] with the first two default scales, and an RSRP
residual in dB as the target. The prior mean is the training-target
average, so predictions revert to that offset far from the data.

scipy is imported inside `fit` and `predict`, not here: only the radio maps
(throughput and MIMO) load it, at their first fit, and every other process
never pays for it.
"""
from __future__ import annotations

import numpy as np

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

    def _kernel(self, A, B):
        a = A / self.length_scales
        b = B / self.length_scales
        # squared distances one input dimension at a time, over (rows, n)
        # blocks, added left to right: ((d0 + d1) + d2) + d3 is the order
        # numpy's reduce adds a short axis in, so each value equals, to the
        # last bit, a sum over the input axis of all the differences at once
        d2 = (a[:, 0, None] - b[None, :, 0]) ** 2
        for j in range(1, a.shape[1]):
            d2 += (a[:, j, None] - b[None, :, j]) ** 2
        d2 *= -0.5
        np.exp(d2, out=d2)
        d2 *= self.signal_std ** 2
        return d2

    def fit(self, X, y) -> "GprRegressor":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if y.size != X.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has "
                             f"{y.size} values")
        if X.shape[0] < 2:
            raise ValueError("need at least 2 samples")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("non-finite training data")
        if X.shape[1] != self.length_scales.size:
            raise ValueError(f"expected {self.length_scales.size} input dims")
        # imported here, not at module level: scipy.linalg more than
        # doubles the start-up of a process that never fits a radio map
        from scipy.linalg import cho_factor, cho_solve
        K = self._kernel(X, X)
        K[np.diag_indices_from(K)] += self.noise_std ** 2 + JITTER
        # X and y are finite, but their kernel can still overflow to NaN
        # (tiny length scales); any NaN or inf of K reaches the factor's
        # diagonal, so one O(n) check there replaces scipy's O(n^2) scans
        try:
            chol = cho_factor(K, lower=True, check_finite=False)
        except np.linalg.LinAlgError as e:
            raise NumericalFailure(f"kernel factorization failed: {e}")
        if not np.isfinite(np.diagonal(chol[0])).all():
            raise NumericalFailure("kernel factorization failed: "
                                   "non-finite kernel")
        self._chol = chol
        self._X = X
        self._y_mean = float(np.mean(y))
        self._alpha = cho_solve(chol, y - self._y_mean, check_finite=False)
        return self

    def predict(self, X_query, return_var: bool = False):
        if self._X is None:
            raise ValueError("model is not fitted")
        Xq = np.atleast_2d(np.asarray(X_query, dtype=float))
        if Xq.shape[1] != self.length_scales.size:
            raise ValueError(f"expected {self.length_scales.size} query dims")
        mean, var = np.empty(Xq.shape[0]), np.empty(Xq.shape[0])
        # query rows go in chunks of PREDICT_CHUNK_ROWS. That bounds the
        # (rows, n) kernel block and fixes the rows in each Ks @ alpha
        # call; BLAS splits a product by its row count, so another chunk
        # size could change the last bits of predictions and loop reports
        for i in range(0, Xq.shape[0], PREDICT_CHUNK_ROWS):
            rows = slice(i, i + PREDICT_CHUNK_ROWS)
            Ks = self._kernel(Xq[rows], self._X)
            mean[rows] = self._y_mean + Ks @ self._alpha
            if return_var:
                # imported here for the reason given in `fit`
                from scipy.linalg import cho_solve
                v = cho_solve(self._chol, Ks.T, check_finite=False)
                var[rows] = self.signal_std ** 2 - np.einsum("ij,ji->i",
                                                             Ks, v)
        if not return_var:
            return mean
        return mean, np.maximum(var, 0.0)
