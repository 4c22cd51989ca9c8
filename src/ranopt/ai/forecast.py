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

    def __init__(self):
        self._history = None

    def fit(self, history) -> "TrafficForecaster":
        y = np.asarray(history, dtype=float).ravel()
        if y.size < MIN_HISTORY:
            raise InsufficientHistory(
                f"need at least {MIN_HISTORY} hourly samples, got {y.size}")
        if not np.isfinite(y).all():
            raise ValueError("non-finite history values")
        resid = y[PERIOD:] - y[:-PERIOD]
        rows = resid.size - AR_ORDER
        if rows >= AR_ORDER and np.ptp(resid) > 0.0:
            A = np.column_stack([resid[AR_ORDER - 1 - j:
                                       AR_ORDER - 1 - j + rows]
                                 for j in range(AR_ORDER)])
            b = resid[AR_ORDER:]
            self._coefs, *_ = np.linalg.lstsq(A, b, rcond=None)
        else:
            self._coefs = np.zeros(AR_ORDER)
        self._history = y
        self._resid_tail = list(resid[-AR_ORDER:])
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
            base = y[y.size - PERIOD + h - 1]
            r_hat = float(np.dot(self._coefs, tail[::-1][:AR_ORDER]))
            out.append(base + r_hat)
            tail.append(r_hat)
        return np.array(out)
