import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranopt.errors import NotFoundError, ValidationError
from ranopt.scenarios import load_bundled
from ranopt.simcore import (ShadowField, antenna_gain_dbi, apply_command,
                            engine, step)
from ranopt.simcore.types import ALLOWED_CIO_DB, N_PATTERNS, PATTERN_CODEBOOK

from conftest import make_cell, make_scenario
from naive_oracle import compute_rsrp_dbm, draw_users_per_user, step_per_user

BUNDLED = ("single_cell_detuned", "two_cell_detuned", "three_cell_hotspot",
           "toy_two_cell", "diurnal_energy")


class TestStep:
    # scenario seeds, window times and actuations; switching carriers off
    # leaves cells without users and, with every carrier off, users
    # without a cell
    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(BUNDLED),
           seed=st.integers(0, 2 ** 40),
           t_s=st.one_of(st.integers(0, 24 * 14).map(lambda h: 3600.0 * h),
                         st.floats(0.0, 2e6)),
           window_len_s=st.sampled_from([900.0, 3600.0]),
           data=st.data())
    def test_step_is_the_window_cores_record_view(self, name, seed, t_s,
                                                  window_len_s, data):
        sc = load_bundled(name)
        sc.seed = seed
        for c in sc.cells:
            sc = apply_command(sc, c.cell_id, data.draw(st.fixed_dictionaries({
                "pattern_id": st.integers(0, N_PATTERNS - 1),
                "cio_db": st.sampled_from(ALLOWED_CIO_DB),
                "carrier_on": st.booleans()})))
        meas, kpis = step(sc, window_len_s, t_s)
        ref_meas, ref_kpis = step_per_user(sc, window_len_s, t_s)
        # repr tells every float bit and every type apart
        assert repr(meas) == repr(ref_meas)
        assert repr(kpis) == repr(ref_kpis)
        per_cluster = engine.draw_positions(sc, t_s)
        users = draw_users_per_user(sc, t_s)
        assert engine.user_ids(len(p) for p in per_cluster) \
            == [u.user_id for u in users]
        assert repr([tuple(p) for pos in per_cluster for p in pos.tolist()]) \
            == repr([u.pos for u in users])

    def test_deterministic(self, single_cell_scenario):
        m1, k1 = step(single_cell_scenario, 3600.0, 0.0)
        m2, k2 = step(single_cell_scenario, 3600.0, 0.0)
        assert m1 == m2 and k1 == k2

    def test_shadow_fields_built_once_and_read_only(self):
        sc = make_scenario(cells=[make_cell("c1"), make_cell("c2")],
                           shadow_sigma_db=4.0)
        first, again = engine.shadow_fields(sc), engine.shadow_fields(sc)
        assert all(again[c] is first[c] for c in ("c1", "c2"))
        pts = np.random.default_rng(0).uniform(-300, 300, (20, 2))
        fresh = ShadowField(sc.seed, "c2", 4.0, sc.shadow_corr_m)
        assert np.array_equal(first["c2"].at(pts), fresh.at(pts))
        with pytest.raises(ValueError):
            first["c1"]._phase[0] = 0.0

    def test_zero_traffic_bucket(self):
        profile = [1.0] * 24
        profile[4] = 0.0
        sc = make_scenario(profile=profile)
        m, k = step(sc, 3600.0, 4 * 3600.0)
        assert m == []
        assert k[0].num_users == 0 and k[0].throughput_mbps == 0.0

    def test_record_counts_match_attachment(self):
        sc = make_scenario(cells=[make_cell("c1"),
                                  make_cell("c2", site_pos=(500.0, 0.0, 25.0),
                                            azimuth_deg=180.0)])
        m, k = step(sc, 3600.0, 0.0)
        # recount oracle over the emitted batch
        per_cell = {}
        for rec in m:
            per_cell[rec.cell_id] = per_cell.get(rec.cell_id, 0) + 1
        for kpi in k:
            assert per_cell.get(kpi.cell_id, 0) == kpi.num_users
        assert len(m) == sum(kpi.num_users for kpi in k)

    def test_throughput_conservation(self, single_cell_scenario):
        m, k = step(single_cell_scenario, 3600.0, 0.0)
        total = sum(rec.rate_mbps for rec in m if rec.cell_id == "c1")
        assert k[0].throughput_mbps == pytest.approx(total, rel=1e-12)

    def test_attachment_maximizes_biased_rsrp(self):
        sc = make_scenario(cells=[make_cell("c1", cio_db=3.0),
                                  make_cell("c2", site_pos=(500.0, 0.0, 25.0),
                                            azimuth_deg=180.0)],
                           shadow_sigma_db=4.0)
        m, _ = step(sc, 3600.0, 0.0)
        by_user = {}
        for rec in m:
            by_user.setdefault(rec.user_id, []).append(rec)
        # each user has exactly one record: its serving cell
        for recs in by_user.values():
            assert len(recs) == 1

    def test_cio_shift_invariance(self):
        # adding the same constant to every cell's cio never changes attachment
        cells_a = [make_cell("c1", cio_db=0.0),
                   make_cell("c2", site_pos=(420.0, 60.0, 25.0), cio_db=0.0)]
        cells_b = [make_cell("c1", cio_db=3.0),
                   make_cell("c2", site_pos=(420.0, 60.0, 25.0), cio_db=3.0)]
        ma, _ = step(make_scenario(cells=cells_a, shadow_sigma_db=4.0), 3600.0, 0.0)
        mb, _ = step(make_scenario(cells=cells_b, shadow_sigma_db=4.0), 3600.0, 0.0)
        assert [(r.user_id, r.cell_id) for r in ma] == \
               [(r.user_id, r.cell_id) for r in mb]

    def test_collision_removing_pure_interferer_never_increases(self):
        # c3 serves nobody (low power far cell); removing it cannot raise the ratio
        cells = [make_cell("c1"),
                 make_cell("c2", site_pos=(400.0, 120.0, 25.0), azimuth_deg=200.0),
                 make_cell("c3", site_pos=(150.0, -300.0, 25.0), azimuth_deg=90.0,
                           tx_power_dbm=45.0)]
        sc_all = make_scenario(cells=cells, shadow_sigma_db=4.0)
        m, k_all = step(sc_all, 3600.0, 0.0)
        served_by_c3 = any(rec.cell_id == "c3" for rec in m)
        sc_less = make_scenario(cells=cells[:2], shadow_sigma_db=4.0)
        _, k_less = step(sc_less, 3600.0, 0.0)
        if not served_by_c3:
            for ka, kl in zip(k_all[:2], k_less):
                assert kl.collision_ratio <= ka.collision_ratio + 1e-12

    def test_draw_users_scales_with_profile(self):
        profile = [0.5] * 24
        sc = make_scenario(profile=profile)
        [users] = engine.draw_positions(sc, 0.0)
        assert len(users) == round(12.0 * 0.5)


class TestScenario:
    def test_repeated_cell_id_is_refused(self):
        with pytest.raises(ValidationError, match="'c1' repeats"):
            make_scenario(cells=[make_cell("c1"), make_cell("c2"),
                                 make_cell("c1", azimuth_deg=180.0)])


class TestApplyCommand:
    def test_identity_command(self, single_cell_scenario):
        sc2 = apply_command(single_cell_scenario, "c1", {"azimuth_deg": 0.0})
        assert sc2.cells[0] == single_cell_scenario.cells[0]

    def test_unknown_cell(self, single_cell_scenario):
        with pytest.raises(NotFoundError):
            apply_command(single_cell_scenario, "nope", {"tilt_deg": 3.0})

    def test_carrier_off_reflected_in_power(self, single_cell_scenario):
        sc2 = apply_command(single_cell_scenario, "c1", {"carrier_on": False})
        _, k = step(sc2, 3600.0, 0.0)
        assert k[0].power_w == pytest.approx(62.5)

    def test_out_of_range_rejected(self, single_cell_scenario):
        with pytest.raises(ValidationError):
            apply_command(single_cell_scenario, "c1", {"tilt_deg": 20.0})

    def test_tilt_change_equals_gain_delta(self, single_cell_scenario):
        # RSRP delta at a fixed probe equals the antenna gain delta exactly
        probe = (260.0, 10.0)
        cell3 = single_cell_scenario.cells[0].replace(tilt_deg=3.0)
        cell8 = cell3.replace(tilt_deg=8.0)
        beam = PATTERN_CODEBOOK[0][0]
        r3 = compute_rsrp_dbm(cell3, beam, probe, 3.55)
        r8 = compute_rsrp_dbm(cell8, beam, probe, 3.55)
        g3 = antenna_gain_dbi(cell3, beam, *_probe_angles(cell3, probe))
        g8 = antenna_gain_dbi(cell8, beam, *_probe_angles(cell8, probe))
        assert (r8 - r3) == pytest.approx(float(g8 - g3), abs=1e-9)


def _probe_angles(cell, probe):
    from ranopt.simcore.radio import user_geometry
    _, az, el = user_geometry(cell, probe)
    return float(az[0]), float(el[0])


class TestPatternCodebook:
    def test_four_patterns_of_eight_beams(self):
        assert len(PATTERN_CODEBOOK) == 4
        for pattern in PATTERN_CODEBOOK:
            assert len(pattern) == 8
            for b in pattern:
                assert b.az_bw_deg > 0 and b.el_bw_deg > 0

    def test_narrow_wide_scaling(self):
        default, narrow, wide, down = PATTERN_CODEBOOK
        assert narrow[0].az_bw_deg == pytest.approx(default[0].az_bw_deg * 0.7)
        assert wide[0].az_bw_deg == pytest.approx(default[0].az_bw_deg * 1.4)
        assert down[0].el_offset_deg == pytest.approx(default[0].el_offset_deg + 4.0)
