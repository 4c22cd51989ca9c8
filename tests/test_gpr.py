import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranopt.ai.gpr import PREDICT_CHUNK_ROWS, GprRegressor
from ranopt.errors import NumericalFailure
from ranopt.simcore import ShadowField
from ranopt.simcore.types import PATTERN_CODEBOOK

from conftest import make_cell
from naive_oracle import compute_rsrp_dbm


def grid_inputs(n_side=8, extent=200.0, az=0.0, tilt=6.0):
    xs = np.linspace(50.0, extent + 50.0, n_side)
    ys = np.linspace(-extent / 2, extent / 2, n_side)
    pts = np.array([(x, y, az, tilt) for x in xs for y in ys])
    return pts


def loop_scale_inputs(rng, n):
    """Rows as the throughput loop feeds them: positions within +-1,500 m,
    azimuth 0-360 deg, tilt 0-15 deg."""
    return np.column_stack([rng.uniform(-1500.0, 1500.0, (n, 2)),
                            rng.uniform(0.0, 360.0, n),
                            rng.uniform(0.0, 15.0, n)])


def broadcast_kernel(m, A, B):
    """The kernel as one (rows, n, dims) broadcast summed over its last
    axis: the reference every value of _kernel must match bit for bit."""
    a = A / m.length_scales
    b = B / m.length_scales
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return m.signal_std ** 2 * np.exp(-0.5 * d2)


class TestKernel:
    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, PREDICT_CHUNK_ROWS + 64),
           n=st.integers(2, 500),
           seed=st.integers(0, 2 ** 32 - 1),
           length_scales=st.one_of(
               st.none(),
               st.tuples(*[st.floats(0.5, 500.0)] * 4)),
           signal_std=st.floats(0.5, 20.0))
    def test_equals_broadcast_reference_bit_for_bit(self, rows, n, seed,
                                                    length_scales,
                                                    signal_std):
        rng = np.random.default_rng(seed)
        m = (GprRegressor(signal_std=signal_std) if length_scales is None
             else GprRegressor(length_scales, signal_std=signal_std))
        A, B = loop_scale_inputs(rng, rows), loop_scale_inputs(rng, n)
        assert np.array_equal(m._kernel(A, B), broadcast_kernel(m, A, B))


class TestFitPredict:
    def test_fit_rejects_mismatched_lengths(self):
        X = grid_inputs(4)[:10]
        with pytest.raises(ValueError, match="10 rows but y has 8 values"):
            GprRegressor().fit(X, np.full(8, -70.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["X", "y"])
    def test_fit_rejects_non_finite_data(self, where, bad):
        X = grid_inputs(3)
        y = np.full(X.shape[0], -70.0)
        (X if where == "X" else y)[4:5] = bad
        with pytest.raises(ValueError, match="non-finite training data"):
            GprRegressor().fit(X, y)

    def test_overflowing_kernel_is_a_numerical_failure(self):
        # finite inputs over tiny length scales overflow to an all-NaN
        # kernel; the factor is not checked for NaN by scipy, but by fit
        m = GprRegressor((1e-320, 1e-320))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure, match="non-finite kernel"):
                m.fit([[1, 1], [2, 2], [3, 1]], [1, 2, 3])
        with pytest.raises(ValueError, match="not fitted"):
            m.predict([[1, 1]])

    def test_predict_is_chunked_products_bit_for_bit(self):
        # the rows in each Ks @ alpha call can decide the last bits of the
        # mean, so predict keeps 256 rows per product: another chunk size
        # could change the loop's reports
        assert PREDICT_CHUNK_ROWS == 256
        rng = np.random.default_rng(3)
        X = loop_scale_inputs(rng, 400)
        y = -80.0 + rng.normal(0.0, 6.0, 400)
        m = GprRegressor().fit(X, y)
        Xq = loop_scale_inputs(rng, 600)
        expected = np.concatenate([
            m._y_mean + m._kernel(Xq[i:i + PREDICT_CHUNK_ROWS], m._X)
            @ m._alpha
            for i in range(0, 600, PREDICT_CHUNK_ROWS)])
        assert np.array_equal(m.predict(Xq), expected)

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
