import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranopt.simcore import (BORESIGHT_GAIN_DBI, NO_SIGNAL_DBM, ShadowField,
                            antenna_gain_dbi, best_beam_rsrp_dbm,
                            compute_sinr_db, dbm_to_mw, noise_dbm,
                            path_loss_db)
from ranopt.simcore.radio import best_beam_rsrp_dbm_variants, user_geometry
from ranopt.simcore.types import (Beam, N_PATTERNS, N_RE, RSRP_MAX_DBM,
                                  RSRP_MIN_DBM)

from conftest import make_cell
from naive_oracle import compute_rsrp_dbm


class TestPathLoss:
    def test_reference_point(self):
        # 32.4 + 21*log10(1) + 20*log10(1)
        assert path_loss_db(1.0, 1.0) == pytest.approx(32.4)

    def test_100m_band_n78(self):
        assert path_loss_db(100.0, 3.55) == pytest.approx(85.4045, abs=1e-3)

    def test_200m_and_monotone(self):
        assert path_loss_db(200.0, 3.55) == pytest.approx(91.7262, abs=1e-3)
        d = np.linspace(1, 2000, 200)
        pl = path_loss_db(d, 3.55)
        assert np.all(np.diff(pl) >= 0)

    def test_below_1m_clamps(self):
        assert path_loss_db(0.2, 3.55) == path_loss_db(1.0, 3.55)


def centered_beam():
    return Beam(beam_id=0, az_offset_deg=0.0, el_offset_deg=0.0,
                az_bw_deg=8.5, el_bw_deg=12.75)


class TestAntennaGain:
    def test_boresight(self):
        cell = make_cell(azimuth_deg=0.0, tilt_deg=0.0)
        g = antenna_gain_dbi(cell, centered_beam(), 0.0, 0.0)
        assert g == pytest.approx(8.0 + 10.0 * np.log10(96), abs=1e-6)
        assert g == pytest.approx(27.82, abs=0.01)

    def test_one_beamwidth_off_is_12db_down(self):
        cell = make_cell(azimuth_deg=0.0, tilt_deg=0.0)
        g = antenna_gain_dbi(cell, centered_beam(), 8.5, 0.0)
        assert g == pytest.approx(BORESIGHT_GAIN_DBI - 12.0, abs=1e-9)

    def test_floor_clamp(self):
        cell = make_cell(azimuth_deg=0.0, tilt_deg=0.0)
        g = antenna_gain_dbi(cell, centered_beam(), 90.0, 40.0)
        assert g == pytest.approx(BORESIGHT_GAIN_DBI - 30.0, abs=1e-9)
        assert g == pytest.approx(-2.18, abs=0.01)

    def test_azimuth_wraps(self):
        cell = make_cell(azimuth_deg=358.0, tilt_deg=0.0)
        g_wrap = antenna_gain_dbi(cell, centered_beam(), 2.0, 0.0)
        cell2 = make_cell(azimuth_deg=10.0, tilt_deg=0.0)
        g_plain = antenna_gain_dbi(cell2, centered_beam(), 14.0, 0.0)
        assert g_wrap == pytest.approx(g_plain, abs=1e-9)


class TestRsrp:
    def test_composed_formula_at_100m(self):
        # flat geometry: site height 0 so the 100 m point is at boresight
        cell = make_cell(site_pos=(0.0, 0.0, 0.0), azimuth_deg=0.0,
                         tilt_deg=0.0, tx_power_dbm=53.0)
        r = compute_rsrp_dbm(cell, centered_beam(), (100.0, 0.0), 3.55)
        expected = 53.0 - 10.0 * np.log10(3276) + BORESIGHT_GAIN_DBI - 85.4045
        assert r == pytest.approx(expected, abs=1e-3)
        assert r == pytest.approx(-39.73, abs=0.01)

    def test_carrier_off_marker(self):
        cell = make_cell(carrier_on=False)
        assert compute_rsrp_dbm(cell, centered_beam(), (100.0, 0.0), 3.55) \
            == NO_SIGNAL_DBM

    def test_doubling_distance_drop(self):
        cell = make_cell(site_pos=(0.0, 0.0, 0.0), azimuth_deg=0.0, tilt_deg=0.0)
        r100 = compute_rsrp_dbm(cell, centered_beam(), (100.0, 0.0), 3.55)
        r200 = compute_rsrp_dbm(cell, centered_beam(), (200.0, 0.0), 3.55)
        assert r100 - r200 == pytest.approx(21.0 * np.log10(2.0), abs=1e-9)

    def test_monotone_along_boresight_ray(self):
        cell = make_cell(site_pos=(0.0, 0.0, 0.0), azimuth_deg=0.0, tilt_deg=0.0)
        d = np.linspace(20.0, 1500.0, 120)
        pts = np.stack([d, np.zeros_like(d)], axis=1)
        r = compute_rsrp_dbm(cell, centered_beam(), pts, 3.55)
        assert np.all(np.diff(r) <= 1e-12)

    def test_clamped_to_reporting_range(self):
        cell = make_cell(site_pos=(0.0, 0.0, 0.0), azimuth_deg=0.0,
                         tilt_deg=0.0, tx_power_dbm=53.0)
        near = compute_rsrp_dbm(cell, centered_beam(), (1.0, 0.0), 3.55)
        far = compute_rsrp_dbm(cell, centered_beam(), (1e9, 0.0), 3.55)
        assert near == -31.0
        assert far == -156.0


def naive_rsrp(cell, beam, pos, carrier_ghz, shadow):
    """One beam's RSRP written out term by term, as a reference."""
    if not cell.carrier_on:
        return np.full(len(pos), NO_SIGNAL_DBM)
    dist, az, el = user_geometry(cell, pos)
    tx_re = cell.tx_power_dbm - 10.0 * np.log10(N_RE)
    rsrp = (tx_re + antenna_gain_dbi(cell, beam, az, el)
            - path_loss_db(dist, carrier_ghz))
    if shadow is not None:
        rsrp = rsrp + shadow.at(pos)
    return np.clip(rsrp, RSRP_MIN_DBM, RSRP_MAX_DBM)


class TestBestBeam:
    @settings(max_examples=120, deadline=None)
    @given(pattern_id=st.integers(0, N_PATTERNS - 1),
           carrier_on=st.booleans(), shadowed=st.booleans(),
           n_users=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_per_beam_stack_bit_for_bit(self, pattern_id, carrier_on,
                                               shadowed, n_users, seed):
        rng = np.random.default_rng(seed)
        cell = make_cell(site_pos=(*rng.uniform(-300.0, 300.0, 2),
                                   rng.uniform(0.0, 60.0)),
                         azimuth_deg=rng.uniform(0.0, 360.0),
                         tilt_deg=rng.uniform(0.0, 15.0),
                         tx_power_dbm=rng.uniform(30.0, 53.0),
                         pattern_id=pattern_id, carrier_on=carrier_on)
        pos = rng.uniform(-1500.0, 1500.0, (n_users, 2))
        shadow = ShadowField(seed, "c1", 4.0, 50.0) if shadowed else None
        best, idx = best_beam_rsrp_dbm(cell, pos, 3.55, shadow)
        per_beam = np.stack([compute_rsrp_dbm(cell, b, pos, 3.55, shadow)
                             for b in cell.beams])
        assert np.array_equal(best, per_beam.max(axis=0))
        assert np.array_equal(idx, per_beam.argmax(axis=0))
        naive = np.stack([naive_rsrp(cell, b, pos, 3.55, shadow)
                          for b in cell.beams])
        assert np.array_equal(per_beam, naive)

    @settings(max_examples=60, deadline=None)
    @given(pattern_id=st.integers(0, N_PATTERNS - 1),
           carrier_on=st.booleans(), n_variants=st.integers(1, 40),
           n_users=st.integers(1, 100), seed=st.integers(0, 2 ** 32 - 1))
    def test_variants_equal_one_call_each_bit_for_bit(
            self, pattern_id, carrier_on, n_variants, n_users, seed):
        rng = np.random.default_rng(seed)
        cell = make_cell(site_pos=(*rng.uniform(-300.0, 300.0, 2), 25.0),
                         pattern_id=pattern_id, carrier_on=carrier_on)
        pointings = np.column_stack([rng.uniform(0.0, 360.0, n_variants),
                                     rng.integers(0, 16, n_variants),
                                     rng.uniform(30.0, 53.0, n_variants)])
        pos = rng.uniform(-1500.0, 1500.0, (n_users, 2))
        one_each = [best_beam_rsrp_dbm(
                        cell.replace(azimuth_deg=a, tilt_deg=t,
                                     tx_power_dbm=p), pos, 3.55)[0]
                    for a, t, p in pointings.tolist()]
        assert np.array_equal(
            best_beam_rsrp_dbm_variants(cell, pointings, pos, 3.55),
            np.array(one_each))

    @settings(max_examples=150, deadline=None)
    @given(azimuth=st.floats(0.0, 359.99), tilt=st.floats(0.0, 15.0),
           power=st.floats(30.0, 53.0),
           pattern_id=st.integers(0, N_PATTERNS - 1),
           pos=st.lists(st.tuples(st.floats(-3000.0, 3000.0),
                                  st.floats(-3000.0, 3000.0)),
                        min_size=1, max_size=50),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_shadowing_adds_a_field_of_position_alone(
            self, azimuth, tilt, power, pattern_id, pos, seed):
        # the throughput radio map learns the residual on positions alone;
        # that holds only while shadowing ignores the cell's pointing
        cell = make_cell(azimuth_deg=azimuth, tilt_deg=tilt,
                         tx_power_dbm=power, pattern_id=pattern_id)
        pos = np.array(pos)
        shadow = ShadowField(seed, "c1", 6.0, 50.0)
        shadowed, _ = best_beam_rsrp_dbm(cell, pos, 3.55, shadow)
        bare, _ = best_beam_rsrp_dbm(cell, pos, 3.55)
        inside = ((RSRP_MIN_DBM < shadowed) & (shadowed < RSRP_MAX_DBM)
                  & (RSRP_MIN_DBM < bare) & (bare < RSRP_MAX_DBM))
        assert np.allclose((shadowed - bare)[inside], shadow.at(pos)[inside],
                           rtol=0.0, atol=1e-9)

    def test_carrier_off_reports_no_signal_on_beam_zero(self):
        pos = np.array([[100.0, 0.0], [0.0, 100.0]])
        best, idx = best_beam_rsrp_dbm(make_cell(carrier_on=False), pos, 3.55)
        assert np.all(best == NO_SIGNAL_DBM) and np.all(idx == 0)


class TestShadowField:
    def test_deterministic_and_repeatable(self):
        f1 = ShadowField(3, "c1", 4.0, 50.0)
        f2 = ShadowField(3, "c1", 4.0, 50.0)
        pts = np.random.default_rng(0).uniform(-300, 300, (50, 2))
        assert np.array_equal(f1.at(pts), f2.at(pts))

    def test_distinct_cells_differ(self):
        f1 = ShadowField(3, "c1", 4.0, 50.0)
        f2 = ShadowField(3, "c2", 4.0, 50.0)
        pts = np.random.default_rng(1).uniform(-300, 300, (50, 2))
        assert not np.allclose(f1.at(pts), f2.at(pts))

    def test_sigma_scale(self):
        f = ShadowField(9, "c1", 4.0, 50.0)
        pts = np.random.default_rng(2).uniform(-2000, 2000, (4000, 2))
        std = np.std(f.at(pts))
        assert 2.5 < std < 5.5

    def test_spatial_correlation(self):
        f = ShadowField(4, "c1", 4.0, 50.0)
        base = np.random.default_rng(3).uniform(-300, 300, (200, 2))
        near = base + np.array([5.0, 0.0])
        corr = np.corrcoef(f.at(base), f.at(near))[0, 1]
        assert corr > 0.9


class TestSinr:
    def test_signal_equals_interference(self):
        assert compute_sinr_db(1.0, [1.0], 1e-12) == pytest.approx(0.0, abs=1e-6)

    def test_pure_snr(self):
        assert compute_sinr_db(100.0, [], 1.0) == pytest.approx(20.0)

    def test_mixed(self):
        assert compute_sinr_db(1.0, [0.5, 0.3], 0.2) == pytest.approx(0.0)

    def test_clamps(self):
        assert compute_sinr_db(1e12, [], 1.0) == 40.0
        assert compute_sinr_db(1e-12, [1.0], 1.0) == -23.0

    def test_noise_value(self):
        # -174 + 10log10(100e6) + 7 over the full 100 MHz carrier
        assert noise_dbm(100.0) == pytest.approx(-87.0)
        assert dbm_to_mw(0.0) == 1.0
