"""Naive reference implementations kept as oracles for the optimized code:

* `run_aggregates`, the row-tuple query path, for the warehouse's columnar
  engine: filter, group and aggregate Python row tuples one by one, with
  the percentiles `np.percentile` computes;
* `attach_and_rate`, the per-cell loop that rated one network at a time,
  frozen with its SINR and scheduler arithmetic inlined, for the batched
  kernel in `ranopt.simcore.scheduler`;
* `LinearConfigLog`, the config log that re-sorts on every record and
  scans every entry on lookup, for `ranopt.ai.throughput.ConfigLog`;
* `observe_per_record`, the DQN observation that counted a cell's users
  one measurement record at a time, for `ranopt.ai.dqn.observe`.
"""
from __future__ import annotations

import numpy as np

from ranopt.ai.dqn import N_SECTORS, USER_COUNT_SCALE
from ranopt.simcore.radio import dbm_to_mw, noise_dbm, wrap_deg
from ranopt.simcore.types import (ALLOWED_CIO_DB, N_PATTERNS, RATE_CAP_MBPS,
                                  SINR_MAX_DB, SINR_MIN_DB)
from ranopt.warehouse.query import (OPS, QueryTask, ResultTable,
                                    aggregate_values)

_PERCENTILES = {"p50": 50, "p95": 95}


def _aggregate(agg: str, values: list):
    if agg in _PERCENTILES and values:
        return float(np.percentile(np.asarray(values, dtype=float),
                                   _PERCENTILES[agg]))
    return aggregate_values(agg, values)


def run_aggregates(task: QueryTask, spec, rows: list[tuple]) -> ResultTable:
    """Filter/group/aggregate over raw row tuples; rows sorted by group key."""
    idx = {c.name: i for i, c in enumerate(spec.columns)}
    kept = []
    for r in rows:
        ok = True
        for col, op, lit in task.filters:
            if not OPS[op](r[idx[col]], lit):
                ok = False
                break
        if ok:
            kept.append(r)
    groups: dict[tuple, list] = {}
    for r in kept:
        key = tuple(r[idx[c]] for c in task.group_by)
        groups.setdefault(key, []).append(r)
    if not task.group_by and not groups:
        groups[()] = []
    header = list(task.group_by) + [f"{agg}({col})" for agg, col in task.aggregates]
    out = []
    for key in sorted(groups):  # each column has one dtype
        grp = groups[key]
        vals = []
        for agg, col in task.aggregates:
            col_vals = grp if col == "*" else [r[idx[col]] for r in grp]
            vals.append(_aggregate(agg, col_vals))
        out.append(tuple(key) + tuple(vals))
    return ResultTable(header=header, rows=out)


def _sinr_db(serving_mw, interferer_mw_list, noise_mw):
    s = np.asarray(serving_mw, dtype=float)
    i_tot = np.sum([np.asarray(x, dtype=float) for x in interferer_mw_list],
                   axis=0) if len(interferer_mw_list) else 0.0
    return np.clip(10.0 * np.log10(s / (i_tot + noise_mw)), SINR_MIN_DB,
                   SINR_MAX_DB)


def _schedule_and_rate(bandwidth_mhz, sinr_db, demand):
    n = sinr_db.size
    share_mhz = bandwidth_mhz / n
    raw = 0.75 * share_mhz * np.log2(1.0 + 10.0 ** (sinr_db / 10.0))
    cap = np.minimum(demand, RATE_CAP_MBPS)
    rate = np.minimum(raw, cap)
    with np.errstate(divide="ignore", invalid="ignore"):
        used_fraction = np.where(raw > 0.0, np.minimum(1.0, cap / raw), 0.0)
    return rate, float(np.sum(rate)), float(np.sum(used_fraction) / n)


def attach_and_rate(rsrp_dbm, cells, bandwidth_mhz: float, demand_mbps):
    """One (cells, users) network, rated cell by cell."""
    rsrp = np.asarray(rsrp_dbm, dtype=float)
    n_users = rsrp.shape[1]
    on = np.flatnonzero([c.carrier_on for c in cells])
    bias = np.array([c.cio_db if c.carrier_on else -np.inf for c in cells])
    serving = (rsrp + bias[:, None]).argmax(axis=0) if on.size \
        else np.full(n_users, -1)
    demand = np.broadcast_to(np.asarray(demand_mbps, dtype=float), n_users)
    noise_mw = dbm_to_mw(noise_dbm(bandwidth_mhz))
    sinr, rate = np.full(n_users, np.nan), np.zeros(n_users)
    best_int = np.full(n_users, -np.inf)
    throughput, rbur = np.zeros(len(cells)), np.zeros(len(cells))
    for i in on:
        idx = np.flatnonzero(serving == i)
        if idx.size == 0:
            continue
        others = on[on != i]
        sinr[idx] = _sinr_db(dbm_to_mw(rsrp[i, idx]),
                             [dbm_to_mw(rsrp[j, idx]) for j in others],
                             noise_mw)
        best_int[idx] = rsrp[others][:, idx].max(axis=0, initial=-np.inf)
        rate[idx], throughput[i], rbur[i] = _schedule_and_rate(
            bandwidth_mhz * cells[i].channel_fraction, sinr[idx], demand[idx])
    return serving, sinr, rate, best_int, throughput, rbur


class LinearConfigLog:
    """Snapshots of cell configs, re-sorted by time on every record."""

    def __init__(self):
        self._entries: list[tuple[float, dict]] = []

    def record(self, t_s: float, cells) -> None:
        snap = {cid: {"azimuth_deg": c.azimuth_deg, "tilt_deg": c.tilt_deg,
                      "tx_power_dbm": c.tx_power_dbm,
                      "pattern_id": c.pattern_id}
                for cid, c in cells.items()}
        self._entries.append((float(t_s), snap))
        self._entries.sort(key=lambda e: e[0])

    def lookup(self, cell_id: str, t_s: float):
        best = None
        for t0, snap in self._entries:
            if t0 <= t_s and cell_id in snap:
                best = snap[cell_id]
        return best


def observe_per_record(scenario, cell_index: int, measurements) -> np.ndarray:
    """One cell's observation from records with .cell_id and .pos."""
    cell = scenario.cells[cell_index]
    counts = np.zeros(N_SECTORS)
    for m in measurements:
        if m.cell_id != cell.cell_id:
            continue
        dx = m.pos[0] - cell.site_pos[0]
        dy = m.pos[1] - cell.site_pos[1]
        rel = wrap_deg(np.degrees(np.arctan2(dy, dx)) - cell.azimuth_deg)
        counts[int((rel + 180.0) // (360.0 / N_SECTORS)) % N_SECTORS] += 1.0
    others = [c for i, c in enumerate(scenario.cells) if i != cell_index]
    neighbor = []
    for c in others:
        neighbor += [c.pattern_id / (N_PATTERNS - 1),
                     c.cio_db / max(ALLOWED_CIO_DB)]
    if not others:
        neighbor = [0.0, 0.0]
    return np.concatenate([counts / USER_COUNT_SCALE, neighbor])
