import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ranopt.simcore import (aau_power_w, collision_ratio, compute_sinr_db,
                            dbm_to_mw, energy_step, noise_dbm)
from ranopt.simcore.scheduler import attach_and_rate

from conftest import make_cell
from naive_oracle import attach_and_rate as oracle_attach_and_rate
from naive_oracle import schedule_and_rate


def naive_attach_and_rate(rsrp, cells, bandwidth_mhz, demand):
    """Per-user attachment and per-cell SINR/rate loop, as a reference."""
    n_cells, n_users = rsrp.shape
    serving = np.full(n_users, -1)
    for k in range(n_users):
        for i, c in enumerate(cells):
            s = serving[k]
            if c.carrier_on and (s < 0 or rsrp[i, k] + c.cio_db
                                 > rsrp[s, k] + cells[s].cio_db):
                serving[k] = i
    sinr = np.full(n_users, np.nan)
    rate = np.zeros(n_users)
    best_int = np.full(n_users, -np.inf)
    throughput = np.zeros(n_cells)
    rbur = np.zeros(n_cells)
    noise_mw = dbm_to_mw(noise_dbm(bandwidth_mhz))
    for i, c in enumerate(cells):
        idx = [k for k in range(n_users) if serving[k] == i]
        if not idx:
            continue
        others = [j for j in range(n_cells) if j != i and cells[j].carrier_on]
        sinr[idx] = compute_sinr_db(dbm_to_mw(rsrp[i, idx]),
                                    [dbm_to_mw(rsrp[j, idx]) for j in others],
                                    noise_mw)
        for k in idx:
            best_int[k] = max((rsrp[j, k] for j in others), default=-np.inf)
        rate[idx], throughput[i], rbur[i] = schedule_and_rate(
            bandwidth_mhz * c.channel_fraction, sinr[idx], demand[idx])
    return serving, sinr, rate, best_int, throughput, rbur


class TestAttachAndRate:
    @settings(max_examples=200, deadline=None)
    @given(n_cells=st.integers(1, 5), n_users=st.integers(0, 40),
           on_bits=st.integers(0, 31), per_user_demand=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n_cells=3, n_users=2, on_bits=7, per_user_demand=False, seed=0)
    @example(n_cells=3, n_users=10, on_bits=2, per_user_demand=True, seed=1)
    @example(n_cells=2, n_users=10, on_bits=0, per_user_demand=True, seed=2)
    def test_equals_naive_loop_bit_for_bit(self, n_cells, n_users, on_bits,
                                           per_user_demand, seed):
        rng = np.random.default_rng(seed)
        cells = [make_cell(f"c{i}", carrier_on=bool(on_bits >> i & 1),
                           cio_db=float(rng.choice([-3.0, 0.0, 3.0])),
                           channel_fraction=float(rng.choice([1.0, 0.5])))
                 for i in range(n_cells)]
        # integer dBm values make ties in the attachment rule likely
        rsrp = rng.integers(-156, -31, (n_cells, n_users)).astype(float)
        rsrp[[not c.carrier_on for c in cells]] = -200.0
        demand = rng.uniform(1.0, 300.0, n_users) if per_user_demand \
            else np.full(n_users, 150.0)
        got = attach_and_rate(rsrp, cells, 100.0,
                              demand if per_user_demand else 150.0)
        want = naive_attach_and_rate(rsrp, cells, 100.0, demand)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w, equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(n_cells=st.integers(1, 12), n_users=st.integers(0, 40),
           n_candidates=st.integers(1, 4), off_bits=st.integers(0, 4095),
           per_user_demand=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    # ten active cells and three users: cells with one user and nine
    # interferers, whose sum the per-cell loop adds pairwise
    @example(n_cells=10, n_users=3, n_candidates=2, off_bits=0,
             per_user_demand=False, seed=3)
    @example(n_cells=4, n_users=25, n_candidates=3, off_bits=0b0101,
             per_user_demand=True, seed=4)
    @example(n_cells=3, n_users=5, n_candidates=2, off_bits=0b111,
             per_user_demand=True, seed=5)
    def test_2d_equals_frozen_per_cell_loop_and_batch_equals_2d(
            self, n_cells, n_users, n_candidates, off_bits, per_user_demand,
            seed):
        rng = np.random.default_rng(seed)
        cells = [make_cell(f"c{i}", carrier_on=not off_bits >> i & 1,
                           cio_db=float(rng.choice([-3.0, 0.0, 2.5])),
                           channel_fraction=float(rng.choice([1.0, 0.5])))
                 for i in range(n_cells)]
        rsrp = rng.uniform(-140.0, -40.0, (n_candidates, n_cells, n_users))
        rsrp[0] = np.round(rsrp[0])  # ties in the attachment rule
        demand = rng.uniform(1.0, 300.0, n_users) if per_user_demand \
            else 150.0
        batched = attach_and_rate(rsrp, cells, 100.0, demand)
        for c in range(n_candidates):
            single = attach_and_rate(rsrp[c], cells, 100.0, demand)
            want = oracle_attach_and_rate(rsrp[c], cells, 100.0, demand)
            for b, g, w in zip(batched, single, want, strict=True):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w, equal_nan=True)
                assert np.array_equal(b[c], g, equal_nan=True)


class TestScheduler:
    def test_empty_cell(self):
        rates, tput, rbur = schedule_and_rate(100.0, [], [])
        assert tput == 0.0 and rbur == 0.0 and rates.size == 0

    def test_single_user_20db(self):
        rates, tput, rbur = schedule_and_rate(100.0, [20.0], [1e9])
        expected = 0.75 * 100.0 * np.log2(1.0 + 100.0)
        assert tput == pytest.approx(expected, abs=1e-6)
        assert tput == pytest.approx(499.4, abs=0.1)
        assert rbur == 1.0

    def test_two_identical_users_split(self):
        _, tput1, _ = schedule_and_rate(100.0, [15.0], [1e9])
        rates, tput2, _ = schedule_and_rate(100.0, [15.0, 15.0], [1e9, 1e9])
        assert tput2 == pytest.approx(tput1, abs=1e-9)
        assert rates[0] == pytest.approx(rates[1])

    def test_demand_cap_reduces_rbur(self):
        rates, tput, rbur = schedule_and_rate(100.0, [20.0], [100.0])
        assert tput == pytest.approx(100.0)
        assert 0.0 < rbur < 1.0
        # granted share is exactly cap/raw
        raw = 0.75 * 100.0 * np.log2(101.0)
        assert rbur == pytest.approx(100.0 / raw)

    def test_peak_rate_cap(self):
        rates, tput, _ = schedule_and_rate(2000.0, [40.0], [1e9])
        assert tput == pytest.approx(1180.0)


class TestCollision:
    def test_no_users(self):
        assert collision_ratio([], []) == 0.0

    def test_no_interferer(self):
        assert collision_ratio([-60.0, -70.0], [-np.inf, -np.inf]) == 0.0

    def test_identical_cells_all_collide(self):
        assert collision_ratio([-60.0, -70.0], [-60.0, -70.0]) == 1.0

    def test_gap_boundary(self):
        assert collision_ratio([-60.0], [-66.0]) == 1.0
        assert collision_ratio([-60.0], [-66.01]) == 0.0

    def test_brute_force_recount(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(-100, -60, 200)
        i = rng.uniform(-100, -60, 200)
        expected = sum(1 for a, b in zip(s, i) if a - b <= 6.0) / 200
        assert collision_ratio(s, i) == pytest.approx(expected)


class TestEnergy:
    def test_sleep_state(self):
        cell = make_cell(carrier_on=False)
        power, _ = energy_step(cell, 0.5, 3600.0)
        assert aau_power_w(cell, 0.5) == 50.0
        assert power == pytest.approx(62.5)

    def test_full_load_no_shutdowns(self):
        cell = make_cell()
        assert aau_power_w(cell, 1.0) == pytest.approx(950.0)

    def test_ecs_strictly_reduces(self):
        on = make_cell(channel_fraction=1.0)
        ecs = make_cell(channel_fraction=0.5)
        for load in (0.0, 0.3, 1.0):
            assert aau_power_w(ecs, load) < aau_power_w(on, load)

    def test_ess_tracks_load(self):
        ess = make_cell(symbol_fraction=0.10)
        full = make_cell(symbol_fraction=1.0)
        assert aau_power_w(ess, 0.5) == pytest.approx(50 + 300 + 600 * 0.5 * 0.5)
        assert aau_power_w(ess, 0.05) == pytest.approx(50 + 300 + 600 * 0.05 * 0.10)
        assert aau_power_w(ess, 0.5) < aau_power_w(full, 0.5)

    def test_energy_integration(self):
        cell = make_cell()
        power, wh = energy_step(cell, 1.0, 1800.0)
        assert wh == pytest.approx(power * 0.5)

    def test_monotone_in_levers(self):
        base = make_cell()
        for load in (0.0, 0.4, 1.0):
            p0 = aau_power_w(base, load)
            assert aau_power_w(make_cell(channel_fraction=0.5), load) <= p0
            assert aau_power_w(make_cell(symbol_fraction=0.5), load) <= p0
            assert aau_power_w(make_cell(carrier_on=False), load) <= p0
