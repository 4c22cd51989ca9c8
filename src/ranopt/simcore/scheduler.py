"""Attachment, round-robin scheduler, rate model and beam-collision statistic."""
from __future__ import annotations

import math

import numpy as np

from .radio import compute_sinr_db, dbm_to_mw, noise_dbm
from .types import RATE_CAP_MBPS

SPECTRAL_EFFICIENCY_FACTOR = 0.75
COLLISION_GAP_DB = 6.0


def _rate_and_use(share_mhz, sinr_db, demand_mbps):
    """Per-user rate on share_mhz of bandwidth, and the fraction of that
    share it uses.  The rate cap is min(demand, downlink peak rate)."""
    raw = SPECTRAL_EFFICIENCY_FACTOR * share_mhz * np.log2(
        1.0 + 10.0 ** (sinr_db / 10.0))
    cap = np.minimum(demand_mbps, RATE_CAP_MBPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        used = np.where(raw > 0.0, np.minimum(1.0, cap / raw), 0.0)
    return np.minimum(raw, cap), used


def schedule_and_rate(bandwidth_mhz: float, sinr_db, demand_mbps):
    """Equal-PRB-share rates for one cell's attached users.

    Returns (per-user rate Mbps, cell throughput Mbps, rbur); unused share
    lowers rbur.
    """
    sinr_db = np.asarray(sinr_db, dtype=float)
    n = sinr_db.size
    if n == 0:
        return np.zeros(0), 0.0, 0.0
    rate, used = _rate_and_use(bandwidth_mhz / n, sinr_db,
                               np.asarray(demand_mbps, dtype=float))
    return rate, float(np.sum(rate)), float(np.sum(used) / n)


def _segment_sums(values, first):
    """Row sums of values (rows, n) over each run of columns that begins
    where first is True, each equal to np.sum of the run: a 0.0 put before
    each run makes reduceat add it from 0, pairwise, as np.sum does."""
    starts = np.flatnonzero(first)
    padded = np.zeros((values.shape[0], first.size + starts.size))
    padded[:, np.arange(first.size) + np.cumsum(first)] = values
    return np.add.reduceat(padded, starts + np.arange(starts.size), axis=1)


def attach_and_rate(rsrp_dbm, cells, bandwidth_mhz: float, demand_mbps):
    """The one attachment/SINR/rate path of simulator and predictor.

    rsrp_dbm is (..., cells, users); leading axes hold independent networks
    of the same cells, e.g. candidate configs of one cell, rated at once.
    Users attach to the active cell with the best RSRP + CIO; every other
    active cell interferes.  demand_mbps is a scalar or one value per user.
    Returns per user (serving cell, -1 with every carrier off; SINR, NaN if
    unattached; rate; strongest interferer RSRP, -inf if none) and per cell
    (throughput, rbur), each with the leading axes of rsrp_dbm.  Every value
    is bit-identical to rating each network on its own, cell by cell: the
    interferers are summed in cell order, and the per-cell sums add each
    cell's users in user order, as np.sum does.
    """
    rsrp = np.asarray(rsrp_dbm, dtype=float)
    *lead, n_cells, n_users = rsrp.shape
    n_nets = math.prod(lead)
    rsrp = rsrp.reshape(n_nets, n_cells, n_users)
    on = np.array([c.carrier_on for c in cells], dtype=bool)
    bias = np.array([c.cio_db if c.carrier_on else -np.inf for c in cells])
    serving = (rsrp + bias[:, None]).argmax(axis=1) if on.any() \
        else np.full((n_nets, n_users), -1)
    net, user = np.nonzero(serving >= 0)  # attached (network, user) pairs
    cell = serving[net, user]
    seen = rsrp[net, :, user]  # (attached, cells)
    mw = dbm_to_mw(seen)
    others = on & (np.arange(n_cells) != cell[:, None])
    interference = np.zeros(cell.size)
    for j in np.flatnonzero(on):
        interference += np.where(others[:, j], mw[:, j], 0.0)
    # users per (network, cell); a stable sort on that key puts each
    # cell's users together, in user order
    key = net * n_cells + cell
    order = np.argsort(key, kind="stable")
    grouped = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = grouped[1:] != grouped[:-1]
    grouped = grouped[first]
    counts = np.bincount(key, minlength=n_nets * n_cells)
    n = counts[key]
    # the per-cell loop summed a cell's interferers for all its users at
    # once, which numpy does in cell order, except for a cell's only user:
    # then it is one 1-D sum, pairwise past 8 terms
    lone = np.flatnonzero(n == 1)
    if lone.size:
        interference[lone] = mw[lone][others[lone]].reshape(
            lone.size, int(on.sum()) - 1).sum(axis=1)
    noise_mw = dbm_to_mw(noise_dbm(bandwidth_mhz))  # over the whole carrier
    sinr_att = compute_sinr_db(mw[np.arange(cell.size), cell],
                               [interference], noise_mw)
    best_att = np.where(others, seen, -np.inf).max(axis=1, initial=-np.inf)
    # channel shutdown halves the bandwidth a cell can schedule
    cell_bw = bandwidth_mhz * np.array([c.channel_fraction for c in cells])
    demand = np.broadcast_to(np.asarray(demand_mbps, dtype=float), n_users)
    rate_att, used = _rate_and_use(cell_bw[cell] / n, sinr_att, demand[user])
    throughput, rbur = np.zeros(n_nets * n_cells), np.zeros(n_nets * n_cells)
    sums = _segment_sums(np.stack([rate_att, used])[:, order], first)
    throughput[grouped] = sums[0]
    rbur[grouped] = sums[1] / counts[grouped]
    sinr, rate = np.full((n_nets, n_users), np.nan), np.zeros((n_nets, n_users))
    best_int = np.full((n_nets, n_users), -np.inf)
    sinr[net, user], rate[net, user] = sinr_att, rate_att
    best_int[net, user] = best_att
    per_user = (*lead, n_users)
    per_cell = (*lead, n_cells)
    return (serving.reshape(per_user), sinr.reshape(per_user),
            rate.reshape(per_user), best_int.reshape(per_user),
            throughput.reshape(per_cell), rbur.reshape(per_cell))


def collision_ratio(serving_rsrp_dbm, best_interferer_rsrp_dbm) -> float:
    """Fraction of users in collision; 0 with no users or no interferer."""
    s = np.asarray(serving_rsrp_dbm, dtype=float)
    if s.size == 0:
        return 0.0
    i = np.asarray(best_interferer_rsrp_dbm, dtype=float)
    return float(np.mean((s - i) <= COLLISION_GAP_DB))
