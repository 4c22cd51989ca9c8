"""Energy-saving strategy selection from forecast load.

Strategies stack three shutdown levers on one cell:
  ESS  - symbol shutdown (symbol_fraction < 1), no capacity loss;
  ECS  - channel shutdown (half the channels), capacity halves;
  CWS  - carrier/wake shutdown (carrier off), capacity goes to zero.
A strategy is only kept if its remaining capacity covers 1.2x the forecast
peak load; otherwise the recommendation falls back to the next-milder one.
"""
from __future__ import annotations

import numpy as np

from ..simcore.energy import energy_step
from ..simcore.types import CellConfig

STRATEGIES = ("none", "ESS", "ESS+ECS", "ESS+ECS+CWS")

# Fraction of full capacity that remains under each strategy.
CAPACITY_FRACTION = {"none": 1.0, "ESS": 1.0, "ESS+ECS": 0.5,
                     "ESS+ECS+CWS": 0.0}
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


def rule_strategy(forecast_rbur) -> str:
    """Threshold rules on the forecast load, before the capacity check."""
    f = np.asarray(forecast_rbur, dtype=float)
    peak = float(f.max())
    if peak < 0.05:
        return "ESS+ECS+CWS"
    if peak < 0.20:
        return "ESS+ECS"
    if peak < 0.60:
        return "ESS"
    return "none"


def qos_filter(strategy: str, forecast_rbur) -> str:
    """Step back toward milder strategies until capacity covers 1.2x peak."""
    peak = float(np.asarray(forecast_rbur, dtype=float).max())
    i = STRATEGIES.index(strategy)
    while i > 0 and CAPACITY_FRACTION[STRATEGIES[i]] < QOS_HEADROOM * peak:
        i -= 1
    return STRATEGIES[i]


def expected_saving_wh(cell: CellConfig, strategy: str, forecast_rbur,
                       window_len_s: float = 3600.0) -> float:
    """Energy saved vs the always-on config over the forecast horizon.

    Served load is scaled by the strategy's remaining capacity, so a config
    that sheds traffic is not credited with the energy of serving it.
    """
    base = cell.replace(**STRATEGY_FIELDS["none"])
    cand = cell.replace(**STRATEGY_FIELDS[strategy])
    cap = CAPACITY_FRACTION[strategy]
    saved = 0.0
    for load in np.asarray(forecast_rbur, dtype=float):
        _, wh_base = energy_step(base, load, window_len_s)
        _, wh_cand = energy_step(cand, min(load, cap), window_len_s)
        saved += wh_base - wh_cand
    return saved


def recommend_strategy(cell: CellConfig, forecast_rbur
                       ) -> tuple[str, dict, float]:
    """(strategy name, config fields to apply, expected saving in Wh)."""
    f = np.asarray(forecast_rbur, dtype=float)
    if f.size == 0:
        raise ValueError("empty forecast")
    chosen = qos_filter(rule_strategy(f), f)
    return chosen, dict(STRATEGY_FIELDS[chosen]), \
        expected_saving_wh(cell, chosen, f)

