"""The throughput use case's candidate grid: one value axis per config field.

The loop's throughput and MIMO use cases score every point of this grid
exactly, with ``throughput.predicted_throughputs``.
"""
from __future__ import annotations

import numpy as np

from ..errors import InvalidBounds

DEFAULT_STEPS = {"azimuth_deg": 5.0, "tilt_deg": 1.0, "tx_power_dbm": 1.0}
GRID_FIELDS = ("azimuth_deg", "tilt_deg", "tx_power_dbm")


def build_grid_axes(bounds: dict, steps: dict | None = None) -> dict:
    """bounds: {field: (lo, hi)} -> {field: ndarray of grid values}."""
    steps = {**DEFAULT_STEPS, **(steps or {})}
    axes = {}
    for name in GRID_FIELDS:
        if name not in bounds:
            continue
        lo, hi = bounds[name]
        if hi < lo:
            raise InvalidBounds(f"{name}: empty range ({lo}, {hi})")
        n = int(np.floor((hi - lo) / steps[name] + 1e-9)) + 1
        axes[name] = lo + steps[name] * np.arange(n)
    if not axes:
        raise InvalidBounds("no optimizable fields in bounds")
    return axes
