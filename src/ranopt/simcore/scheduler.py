"""Attachment, round-robin scheduler, rate model and beam-collision statistic."""
from __future__ import annotations

import numpy as np

from .radio import compute_sinr_db, dbm_to_mw, noise_dbm
from .types import RATE_CAP_MBPS

SPECTRAL_EFFICIENCY_FACTOR = 0.75
COLLISION_GAP_DB = 6.0


def schedule_and_rate(bandwidth_mhz: float, sinr_db, demand_mbps):
    """Equal-PRB-share rates for one cell's attached users.

    Returns (per-user rate Mbps, cell throughput Mbps, rbur). The rate cap
    is min(demand, downlink peak rate); unused share lowers rbur.
    """
    sinr_db = np.asarray(sinr_db, dtype=float)
    demand = np.asarray(demand_mbps, dtype=float)
    n = sinr_db.size
    if n == 0:
        return np.zeros(0), 0.0, 0.0
    share_mhz = bandwidth_mhz / n
    raw = SPECTRAL_EFFICIENCY_FACTOR * share_mhz * np.log2(1.0 + 10.0 ** (sinr_db / 10.0))
    cap = np.minimum(demand, RATE_CAP_MBPS)
    rate = np.minimum(raw, cap)
    with np.errstate(divide="ignore", invalid="ignore"):
        used_fraction = np.where(raw > 0.0, np.minimum(1.0, cap / raw), 0.0)
    rbur = float(np.sum(used_fraction) / n)
    return rate, float(np.sum(rate)), rbur


def attach_and_rate(rsrp_dbm, cells, bandwidth_mhz: float, demand_mbps):
    """The one attachment/SINR/rate path of simulator and predictor.

    Users attach to the active cell with the best RSRP + CIO (rsrp_dbm is
    (cells, users)); every other active cell interferes.  Returns per user
    (serving cell, -1 with every carrier off; SINR, NaN if unattached;
    rate; strongest interferer RSRP, -inf if none) and per cell
    (throughput, rbur)."""
    rsrp = np.asarray(rsrp_dbm, dtype=float)
    n_users = rsrp.shape[1]
    on = np.flatnonzero([c.carrier_on for c in cells])
    bias = np.array([c.cio_db if c.carrier_on else -np.inf for c in cells])
    serving = (rsrp + bias[:, None]).argmax(axis=0) if on.size \
        else np.full(n_users, -1)
    demand = np.broadcast_to(np.asarray(demand_mbps, dtype=float), n_users)
    noise_mw = dbm_to_mw(noise_dbm(bandwidth_mhz))  # over the whole carrier
    sinr, rate = np.full(n_users, np.nan), np.zeros(n_users)
    best_int = np.full(n_users, -np.inf)
    throughput, rbur = np.zeros(len(cells)), np.zeros(len(cells))
    for i in on:
        idx = np.flatnonzero(serving == i)
        if idx.size == 0:
            continue
        others = on[on != i]
        sinr[idx] = compute_sinr_db(dbm_to_mw(rsrp[i, idx]),
                                    [dbm_to_mw(rsrp[j, idx]) for j in others],
                                    noise_mw)
        best_int[idx] = rsrp[others][:, idx].max(axis=0, initial=-np.inf)
        # channel shutdown halves the bandwidth a cell can schedule
        rate[idx], throughput[i], rbur[i] = schedule_and_rate(
            bandwidth_mhz * cells[i].channel_fraction, sinr[idx], demand[idx])
    return serving, sinr, rate, best_int, throughput, rbur


def collision_ratio(serving_rsrp_dbm, best_interferer_rsrp_dbm) -> float:
    """Fraction of users in collision; 0 with no users or no interferer."""
    s = np.asarray(serving_rsrp_dbm, dtype=float)
    if s.size == 0:
        return 0.0
    i = np.asarray(best_interferer_rsrp_dbm, dtype=float)
    return float(np.mean((s - i) <= COLLISION_GAP_DB))
