"""Throughput use case: radio-map models and candidate config scoring.

Per cell, a GPR learns the residual between measured RSRP (the warehouse's
``MEASUREMENT_COLUMNS``, as arrays) and the analytic antenna/propagation
model at the config that was active when each sample was taken.  The
residual is a field of position alone: in the simulator, shadowing adds the
same value to every beam at every pointing.  A cell with too few samples
has no GPR and a zero residual.  A candidate config of one cell is scored
by analytic model + learned residual: users are re-attached and network
throughput is predicted with the simulator's radio kernel and
``attach_and_rate``, over every candidate in one call.

``predicted_throughputs`` scores every candidate exactly, at the latest
users' positions; no surrogate model stands in for the scores.  The loop's
throughput and MIMO use cases take its argmax over their grids.
"""
from __future__ import annotations

import bisect
from operator import itemgetter

import numpy as np

from ..errors import InsufficientHistory
from ..simcore.radio import (best_beam_rsrp_dbm, best_beam_rsrp_dbm_variants,
                             pointing)
from ..simcore.scheduler import attach_and_rate
from ..simcore.types import CellConfig
from .gpr import DEFAULT_LENGTH_SCALES, GprRegressor
from .surrogate import GRID_FIELDS

UNCAPPED_DEMAND_MBPS = 1e9
MIN_SAMPLES_PER_CELL = 8
# the beam-management columns the radio maps and the demand cap read
MEASUREMENT_COLUMNS = ("t_s", "cell_id", "rsrp_dbm", "pos_x_m", "pos_y_m",
                       "rate_mbps")
_CONFIG_FIELDS = ("azimuth_deg", "tilt_deg", "tx_power_dbm", "pattern_id")


class ConfigLog:
    """Time-ordered record of which config each cell had in each window."""

    def __init__(self):
        self._entries: list[tuple[float, dict[str, dict]]] = []

    def record(self, t_s: float, cells: dict[str, CellConfig]) -> None:
        """Add a snapshot; one at an equal time goes after, so it wins."""
        snap = {cid: {f: getattr(c, f) for f in _CONFIG_FIELDS}
                for cid, c in cells.items()}
        bisect.insort(self._entries, (float(t_s), snap), key=itemgetter(0))

    def lookup(self, cell_id: str, t_s: float) -> dict | None:
        """Config fields active for cell_id at time t_s, or None: those of
        the latest snapshot at or before t_s that holds cell_id."""
        i = bisect.bisect_right(self._entries, t_s, key=itemgetter(0))
        while i > 0:
            i -= 1
            snap = self._entries[i][1]
            if cell_id in snap:
                return snap[cell_id]
        return None


def fit_radio_maps(columns: dict, cells: dict[str, CellConfig],
                   config_log: ConfigLog, carrier_ghz: float,
                   target_cell: str | None = None
                   ) -> dict[str, GprRegressor]:
    """One residual GPR per cell from warehouse measurement columns.

    columns: arrays t_s, cell_id, rsrp_dbm, pos_x_m, pos_y_m.  A cell with
    fewer than MIN_SAMPLES_PER_CELL rows of a logged config gets no GPR and
    is predicted by the analytic model alone; InsufficientHistory is raised
    if that cell is target_cell, whose candidates would go unscored against
    any measurement.
    """
    pos = np.column_stack([columns["pos_x_m"], columns["pos_y_m"]])
    maps: dict[str, GprRegressor] = {}
    for cid, base in cells.items():
        rows = np.flatnonzero(columns["cell_id"] == cid)
        times, at_time = np.unique(columns["t_s"][rows], return_inverse=True)
        configs: dict[tuple, int] = {}  # each distinct config, numbered
        number = []  # the config number at each distinct time, -1 if none
        for t in times.tolist():
            hist = config_log.lookup(cid, t)
            number.append(-1 if hist is None else configs.setdefault(
                tuple(hist.values()), len(configs)))
        config = np.array(number, dtype=int)[at_time]
        rows, config = rows[config >= 0], config[config >= 0]
        if rows.size < MIN_SAMPLES_PER_CELL:
            if cid == target_cell:
                raise InsufficientHistory(
                    f"cell {cid}: {rows.size} usable measurements, "
                    f"need {MIN_SAMPLES_PER_CELL}")
            continue
        resid = columns["rsrp_dbm"][rows]
        for k, values in enumerate(configs):
            mask = config == k
            cfg = base.replace(**dict(zip(_CONFIG_FIELDS, values)))
            pred, _ = best_beam_rsrp_dbm(cfg, pos[rows[mask]], carrier_ghz)
            resid[mask] -= pred
        maps[cid] = GprRegressor(DEFAULT_LENGTH_SCALES[:2]).fit(pos[rows],
                                                                resid)
    return maps


def predicted_rsrp(cell: CellConfig, gpr: GprRegressor | None, positions,
                   carrier_ghz: float, pointings=None) -> np.ndarray:
    """Analytic best-beam RSRP + GPR residual (none without a GPR): at the
    cell's current fields as (users,), or as (variants, users) at each
    (azimuth, tilt, power) row of pointings.  The residual depends on
    position alone, so one GPR query serves every variant."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    rows = pointing(cell) if pointings is None else pointings
    rsrp = best_beam_rsrp_dbm_variants(cell, rows, pos, carrier_ghz)
    if gpr is not None:
        rsrp += gpr.predict(pos)
    return rsrp[0] if pointings is None else rsrp


def _candidate_throughputs(cells, radio_maps, positions, bandwidth_mhz,
                           carrier_ghz, target_cell, candidates,
                           demand_mbps) -> list[float]:
    """Network throughput with target_cell set to each candidate's
    azimuth, tilt and power (the cell's own where it omits one), all rated
    in one `attach_and_rate` call.  The other cells' RSRP is predicted
    once."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    ids = sorted(cells)
    rsrp = np.empty((len(candidates), len(ids), pos.shape[0]))
    for i, cid in enumerate(ids):
        if cid != target_cell:
            rsrp[:, i] = predicted_rsrp(cells[cid], radio_maps.get(cid),
                                        pos, carrier_ghz)
    if target_cell is not None:
        cell = cells[target_cell]
        own = {f: getattr(cell, f) for f in GRID_FIELDS}
        if any(f.keys() - own.keys() for f in candidates):
            raise ValueError(f"a candidate may set only {GRID_FIELDS}")
        pointings = np.array([[*{**own, **f}.values()] for f in candidates],
                             dtype=float)
        rsrp[:, ids.index(target_cell)] = predicted_rsrp(
            cell, radio_maps.get(target_cell), pos, carrier_ghz, pointings)
    throughput = attach_and_rate(rsrp, [cells[cid] for cid in ids],
                                 bandwidth_mhz, demand_mbps)[4]
    return [sum(row) for row in throughput.tolist()]  # added in cell order


def estimate_demand_cap(rates) -> float:
    """Per-user demand estimate: the best rate any user ever achieved.

    Fully served users report rate == demand, so the historical maximum is a
    tight lower bound on the per-user demand cap."""
    best = float(np.max(rates, initial=0.0))
    return best if best > 0.0 else UNCAPPED_DEMAND_MBPS


def predicted_throughputs(columns: dict, cells: dict[str, CellConfig],
                          config_log: ConfigLog, target_cell: str,
                          candidates: list[dict], bandwidth_mhz: float,
                          carrier_ghz: float) -> list[float]:
    """Radio maps from the arrays of MEASUREMENT_COLUMNS, then the network
    throughput of each candidate config of target_cell (fields of
    GRID_FIELDS) at the latest users' positions, all scored in one call;
    no score at all if target_cell has too few usable measurements."""
    try:
        maps = fit_radio_maps(columns, cells, config_log, carrier_ghz,
                              target_cell)
    except InsufficientHistory:
        return []
    latest = columns["t_s"] == columns["t_s"].max()
    positions = np.column_stack([columns["pos_x_m"][latest],
                                 columns["pos_y_m"][latest]])
    return _candidate_throughputs(
        cells, maps, positions, bandwidth_mhz, carrier_ghz, target_cell,
        candidates, estimate_demand_cap(columns["rate_mbps"]))
