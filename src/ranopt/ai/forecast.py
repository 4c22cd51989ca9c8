"""Hourly traffic forecasting: seasonal-naive base plus an AR residual."""
from __future__ import annotations

import numpy as np

from ..errors import InsufficientHistory

PERIOD = 24
AR_ORDER = 3
MAX_HORIZON = 24
MIN_HISTORY = 2 * PERIOD


class TrafficForecaster:
    """Predicts the next <= 24 hourly load values from a diurnal history.

    Base prediction repeats the value one day earlier; a small autoregression
    fitted on the day-over-day residuals corrects short-term drift.
    """

    def __init__(self, period: int = PERIOD, ar_order: int = AR_ORDER):
        self.period = int(period)
        self.ar_order = int(ar_order)
        self._history = None
        self._coefs = np.zeros(self.ar_order)

    def fit(self, history) -> "TrafficForecaster":
        y = np.asarray(history, dtype=float).ravel()
        if y.size < MIN_HISTORY:
            raise InsufficientHistory(
                f"need at least {MIN_HISTORY} hourly samples, got {y.size}")
        if not np.isfinite(y).all():
            raise ValueError("non-finite history values")
        resid = y[self.period:] - y[:-self.period]
        rows = resid.size - self.ar_order
        if rows >= self.ar_order and np.ptp(resid) > 0.0:
            A = np.column_stack([resid[self.ar_order - 1 - j:
                                       self.ar_order - 1 - j + rows]
                                 for j in range(self.ar_order)])
            b = resid[self.ar_order:]
            self._coefs, *_ = np.linalg.lstsq(A, b, rcond=None)
        else:
            self._coefs = np.zeros(self.ar_order)
        self._history = y
        self._resid_tail = list(resid[-self.ar_order:])
        return self

    def predict(self, horizon: int):
        if self._history is None:
            raise ValueError("forecaster is not fitted")
        if not (1 <= horizon <= MAX_HORIZON):
            raise ValueError(f"horizon must be in [1, {MAX_HORIZON}]")
        y = self._history
        tail = list(self._resid_tail)
        out = []
        for h in range(1, horizon + 1):
            base = y[y.size - self.period + h - 1]
            r_hat = float(np.dot(self._coefs, tail[::-1][:self.ar_order]))
            out.append(base + r_hat)
            tail.append(r_hat)
        return np.array(out)
