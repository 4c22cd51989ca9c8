import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ranopt.ai.strategy import (QOS_HEADROOM, STRATEGIES, STRATEGY_FIELDS,
                                capacity, expected_saving_wh)
from ranopt.simcore.energy import energy_step

from conftest import FixedForecast, deploy, make_cell, make_scenario, stub_loop
from naive_oracle import enumerated_strategy

# peak thresholds a rule-based pick would use (0.05, 0.20, 0.60) and the
# peaks where 1.2 x peak meets half and full capacity, exact and rounded
EDGE_PEAKS = (0.0, 0.05, 0.20, 5 / 12, 0.4167, 0.60, 5 / 6, 0.8333, 1.0)


def search(cell, forecast):
    """(strategy, fields, saving) of the command the energy use case
    deploys to cell for this forecast: the strategy whose fields the
    command sets, the fields it changes and their expected saving."""
    fields, saving = deploy(FixedForecast(forecast),
                            stub_loop(make_scenario(cells=[cell])))
    deployed = cell.replace(**fields)
    name = next(n for n in STRATEGIES
                if cell.replace(**STRATEGY_FIELDS[n]) == deployed)
    return name, fields, saving


def changed(cell, name) -> dict:
    """The fields of strategy `name` that differ from the cell's."""
    return {k: v for k, v in STRATEGY_FIELDS[name].items()
            if getattr(cell, k) != v}


class TestRules:
    def test_never_violates_capacity(self):
        rng = np.random.default_rng(0)
        cell = make_cell()
        for _ in range(300):
            f = rng.uniform(0.0, rng.uniform(0.02, 1.0), 24)
            name, fields, saving = search(cell, f)
            assert capacity(cell.replace(**STRATEGY_FIELDS[name])) \
                >= min(QOS_HEADROOM * f.max(), 1.0)
            assert fields == changed(cell, name)
            assert saving >= -1e-9

    @settings(max_examples=300, deadline=None)
    @given(peak=st.sampled_from(EDGE_PEAKS) | st.floats(0.0, 1.0),
           shares=st.lists(st.floats(0.0, 1.0), max_size=23),
           at=st.integers(0, 23))
    @example(peak=0.0, shares=[0.0] * 23, at=0)  # all zero
    @example(peak=1.0, shares=[1.0] * 23, at=0)  # all one
    def test_search_equals_enumeration(self, peak, shares, at):
        forecast = [peak * x for x in shares]
        forecast.insert(at, peak)
        cell = make_cell()
        name, fields, saving = search(cell, forecast)
        assert (name, saving) == enumerated_strategy(cell, forecast)
        assert fields == changed(cell, name)

    def test_empty_forecast_rejected(self):
        with pytest.raises(ValueError):
            search(make_cell(), [])


class TestSaving:
    def test_saving_matches_energy_model(self):
        cell = make_cell()
        load = [0.15, 0.10]
        base = cell.replace(**STRATEGY_FIELDS["none"])
        cand = cell.replace(**STRATEGY_FIELDS["ESS+ECS"])
        expected = 0.0
        for v in load:
            expected += energy_step(base, v, 3600.0)[1]
            expected -= energy_step(cand, min(v, 0.5), 3600.0)[1]
        got = expected_saving_wh(cell, STRATEGY_FIELDS["ESS+ECS"], load)
        assert got == pytest.approx(expected)
        assert got > 0.0

    def test_deeper_shutdown_saves_more_at_idle(self):
        cell = make_cell()
        f = [0.0] * 24
        savings = [expected_saving_wh(cell, STRATEGY_FIELDS[s], f)
                   for s in STRATEGIES]
        assert savings == sorted(savings)

