import numpy as np
import pytest

from ranopt.ai.strategy import (CAPACITY_FRACTION, QOS_HEADROOM, STRATEGIES,
                                STRATEGY_FIELDS, expected_saving_wh,
                                qos_filter, recommend_strategy, rule_strategy)
from ranopt.simcore.energy import energy_step

from conftest import make_cell


class TestRules:
    @pytest.mark.parametrize("peak,expected", [
        (0.01, "ESS+ECS+CWS"), (0.049, "ESS+ECS+CWS"),
        (0.05, "ESS+ECS"), (0.19, "ESS+ECS"),
        (0.20, "ESS"), (0.59, "ESS"),
        (0.60, "none"), (0.95, "none"),
    ])
    def test_thresholds(self, peak, expected):
        forecast = [peak * 0.3] * 23 + [peak]
        assert rule_strategy(forecast) == expected

    def test_qos_fallback_from_cws(self):
        # carrier-off capacity is zero, so any nonzero peak forces a fallback
        assert qos_filter("ESS+ECS+CWS", [0.01]) == "ESS+ECS"
        assert qos_filter("ESS+ECS+CWS", [0.0]) == "ESS+ECS+CWS"

    def test_qos_fallback_from_ecs(self):
        # half capacity cannot cover 1.2 * 0.45
        assert qos_filter("ESS+ECS", [0.45]) == "ESS"
        assert qos_filter("ESS+ECS", [0.40]) == "ESS+ECS"

    def test_never_violates_capacity(self):
        rng = np.random.default_rng(0)
        cell = make_cell()
        for _ in range(300):
            f = rng.uniform(0.0, rng.uniform(0.02, 1.0), 24)
            name, fields, saving = recommend_strategy(cell, f)
            if name != "none":
                assert CAPACITY_FRACTION[name] >= QOS_HEADROOM * f.max()
            assert fields == STRATEGY_FIELDS[name]
            assert saving >= -1e-9

    def test_empty_forecast_rejected(self):
        with pytest.raises(ValueError):
            recommend_strategy(make_cell(), [])


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
        got = expected_saving_wh(cell, "ESS+ECS", load)
        assert got == pytest.approx(expected)
        assert got > 0.0

    def test_deeper_shutdown_saves_more_at_idle(self):
        cell = make_cell()
        f = [0.0] * 24
        savings = [expected_saving_wh(cell, s, f) for s in STRATEGIES]
        assert savings == sorted(savings)

