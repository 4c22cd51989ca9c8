import numpy as np
import pytest

from ranopt.ai.gpr import GprRegressor
from ranopt.simcore import ShadowField, compute_rsrp_dbm
from ranopt.simcore.types import PATTERN_CODEBOOK

from conftest import make_cell


def grid_inputs(n_side=8, extent=200.0, az=0.0, tilt=6.0):
    xs = np.linspace(50.0, extent + 50.0, n_side)
    ys = np.linspace(-extent / 2, extent / 2, n_side)
    pts = np.array([(x, y, az, tilt) for x in xs for y in ys])
    return pts


class TestFitPredict:
    def test_constant_targets(self):
        X = grid_inputs(4)
        y = np.full(X.shape[0], -70.0)
        m = GprRegressor().fit(X, y)
        far = np.array([[5000.0, 5000.0, 0.0, 6.0]])
        mean, var = m.predict(np.vstack([X, far]), return_var=True)
        assert np.allclose(mean, -70.0, atol=1e-6)
        assert np.all(var <= m.signal_std ** 2 + 1e-9)

    def test_duplicate_points_accepted(self):
        X = np.vstack([grid_inputs(3), grid_inputs(3)])
        y = np.concatenate([np.full(9, -70.0), np.full(9, -70.0)])
        m = GprRegressor().fit(X, y)
        assert np.isfinite(m.predict(X[:1])[0])

    def test_interpolates_training_points(self):
        rng = np.random.default_rng(0)
        X = grid_inputs(6)
        y = -70.0 + 5.0 * np.sin(X[:, 0] / 40.0) + rng.normal(0, 0.1, X.shape[0])
        m = GprRegressor(noise_std=0.1).fit(X, y)
        pred = m.predict(X)
        assert np.max(np.abs(pred - y)) < 3 * 0.1 + 0.2

    def test_small_noise_reproduces_targets(self):
        X = grid_inputs(5)
        y = -70.0 + 0.05 * X[:, 0]
        m = GprRegressor(noise_std=1e-3).fit(X, y)
        assert np.max(np.abs(m.predict(X) - y)) < 0.1

    def test_prior_reversion_far_away(self):
        X = grid_inputs(5)
        y = -70.0 + np.linspace(-8, 8, X.shape[0])
        m = GprRegressor().fit(X, y)
        far = np.array([[1e5, 1e5, 180.0, 15.0]])
        mean, var = m.predict(far, return_var=True)
        assert mean[0] == pytest.approx(np.mean(y), abs=1e-6)
        assert var[0] == pytest.approx(m.signal_std ** 2, rel=1e-6)

    def test_variance_nonnegative_and_shrinks_with_data(self):
        rng = np.random.default_rng(1)
        X = grid_inputs(5)
        y = -70.0 + rng.normal(0, 2.0, X.shape[0])
        q = grid_inputs(3) + np.array([7.0, 3.0, 0.0, 0.0])
        m_small = GprRegressor().fit(X[:10], y[:10])
        _, v_small = m_small.predict(q, return_var=True)
        m_big = GprRegressor().fit(X, y)
        _, v_big = m_big.predict(q, return_var=True)
        assert np.all(v_small >= -1e-9) and np.all(v_big >= -1e-9)
        # adding training data never increases posterior variance
        m_sub = GprRegressor().fit(X[:10], y[:10])
        m_sup = GprRegressor().fit(np.vstack([X[:10], X[10:12]]),
                                   np.concatenate([y[:10], y[10:12]]))
        _, v_sub = m_sub.predict(q, return_var=True)
        _, v_sup = m_sup.predict(q, return_var=True)
        assert np.all(v_sup <= v_sub + 1e-9)


class TestDriveRouteAccuracy:
    def test_residuals_on_training_route(self):
        cell = make_cell(site_pos=(0.0, 0.0, 25.0), azimuth_deg=0.0, tilt_deg=6.0)
        beam = PATTERN_CODEBOOK[0][0]
        shadow = ShadowField(3, "c1", 4.0, 50.0)
        rng = np.random.default_rng(5)
        route = np.column_stack([rng.uniform(80, 400, 200),
                                 rng.uniform(-150, 150, 200)])
        rsrp = compute_rsrp_dbm(cell, beam, route, 3.55, shadow)
        X = np.column_stack([route, np.full(200, 0.0), np.full(200, 6.0)])
        m = GprRegressor().fit(X, rsrp)
        resid = np.abs(m.predict(X) - rsrp)
        assert np.mean(resid <= 3 * m.noise_std) > 0.95
