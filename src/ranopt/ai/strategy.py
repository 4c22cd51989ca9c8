"""Energy-saving strategy selection from forecast load.

Strategies stack three shutdown levers on one cell:
  ESS  - symbol shutdown (symbol_fraction < 1), no capacity loss;
  ECS  - channel shutdown (half the channels), capacity halves;
  CWS  - carrier/wake shutdown (carrier off), capacity goes to zero.
The energy use case searches the four strategies exactly: of those whose
capacity covers min(1.2x the forecast peak, 1), the one the energy model
expects to save most over the forecast horizon (`predicted_savings`), the
first in `STRATEGIES` order on a tie.
"""
from __future__ import annotations

import numpy as np

from ..simcore.energy import energy_step
from ..simcore.types import CellConfig

STRATEGIES = ("none", "ESS", "ESS+ECS", "ESS+ECS+CWS")
QOS_HEADROOM = 1.2

STRATEGY_FIELDS = {
    "none": {"carrier_on": True, "channel_fraction": 1.0,
             "symbol_fraction": 1.0},
    "ESS": {"carrier_on": True, "channel_fraction": 1.0,
            "symbol_fraction": 0.5},
    "ESS+ECS": {"carrier_on": True, "channel_fraction": 0.5,
                "symbol_fraction": 0.5},
    "ESS+ECS+CWS": {"carrier_on": False, "channel_fraction": 0.5,
                    "symbol_fraction": 0.5},
}


def capacity(cell) -> float:
    """Fraction of full capacity a cell's config can serve."""
    return float(cell.carrier_on) * cell.channel_fraction


def expected_saving_wh(cell: CellConfig, fields: dict,
                       forecast_rbur) -> float:
    """Energy saved vs the always-on config over the hourly forecast, by
    the cell with its config fields set to `fields`.

    Served load is capped at the config's capacity, so a config that sheds
    traffic is not credited with the energy of serving it.
    """
    base = cell.replace(**STRATEGY_FIELDS["none"])
    cand = cell.replace(**fields)
    cap = capacity(cand)
    saved = 0.0
    for load in np.asarray(forecast_rbur, dtype=float):
        _, wh_base = energy_step(base, load, 3600.0)
        _, wh_cand = energy_step(cand, min(load, cap), 3600.0)
        saved += wh_base - wh_cand
    return saved


def predicted_savings(cell: CellConfig, candidates: list[dict],
                      forecast_rbur) -> list[float]:
    """The expected saving of each candidate (config fields of cell) over
    the forecast; -inf for one whose capacity is below min(QOS_HEADROOM x
    the forecast peak, 1)."""
    f = np.asarray(forecast_rbur, dtype=float)
    if f.size == 0:
        raise ValueError("empty forecast")
    need = min(QOS_HEADROOM * float(f.max()), 1.0)
    return [expected_saving_wh(cell, fields, f)
            if capacity(cell.replace(**fields)) >= need else -np.inf
            for fields in candidates]
