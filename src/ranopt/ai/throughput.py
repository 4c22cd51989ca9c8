"""Throughput use case: radio-map models and candidate config scoring.

Per cell, a GPR learns the residual between measured RSRP and the analytic
antenna/propagation model at the config that was active when each sample was
taken. A candidate config of one cell is scored by analytic model + learned
residual: users are re-attached and network throughput is predicted with the
simulator's ``best_beam_rsrp_dbm`` and ``attach_and_rate``. Candidates are
scored in batches of ``CANDIDATE_BATCH``: per batch, one GPR query over every
(candidate, user) pair of the target cell and one ``attach_and_rate`` call
over a leading candidate axis; the other cells' RSRP is predicted once.

``recommend_config`` scores every point of the target cell's candidate grid
exactly and takes the argmax; no surrogate model stands in for the scores.
"""
from __future__ import annotations

import bisect
from operator import itemgetter

import numpy as np

from ..errors import InsufficientHistory
from ..simcore.radio import best_beam_rsrp_dbm
from ..simcore.scheduler import attach_and_rate
from ..simcore.types import CellConfig
from .gpr import GprRegressor
from .surrogate import build_grid_axes
# importable from here too, where the benchmark's tracer wraps them
from .surrogate import fit_surrogate, optimize_config  # noqa: F401

UNCAPPED_DEMAND_MBPS = 1e9
MIN_SAMPLES_PER_CELL = 8
CANDIDATE_BATCH = 200  # candidates per attach_and_rate call; bounds its arrays


class ConfigLog:
    """Time-ordered record of which config each cell had in each window."""

    def __init__(self):
        self._entries: list[tuple[float, dict[str, dict]]] = []

    def record(self, t_s: float, cells: dict[str, CellConfig]) -> None:
        """Add a snapshot; one at an equal time goes after, so it wins."""
        snap = {cid: {"azimuth_deg": c.azimuth_deg, "tilt_deg": c.tilt_deg,
                      "tx_power_dbm": c.tx_power_dbm,
                      "pattern_id": c.pattern_id}
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


def fit_radio_maps(measurement_rows, cells: dict[str, CellConfig],
                   config_log: ConfigLog, carrier_ghz: float
                   ) -> dict[str, GprRegressor]:
    """One residual GPR per cell from warehouse measurement rows.

    measurement_rows: dicts with t_s, cell_id, rsrp_dbm, pos_x_m, pos_y_m.
    """
    per_cell: dict[str, list[list[float]]] = {cid: [] for cid in cells}
    for row in measurement_rows:
        cid = row["cell_id"]
        if cid not in cells:
            continue
        hist = config_log.lookup(cid, row["t_s"])
        if hist is None:
            continue
        per_cell[cid].append([row["pos_x_m"], row["pos_y_m"],
                              hist["azimuth_deg"], hist["tilt_deg"],
                              hist["tx_power_dbm"], hist["pattern_id"],
                              row["rsrp_dbm"]])
    maps: dict[str, GprRegressor] = {}
    for cid, rows in per_cell.items():
        if len(rows) < MIN_SAMPLES_PER_CELL:
            raise InsufficientHistory(
                f"cell {cid}: {len(rows)} usable measurements, "
                f"need {MIN_SAMPLES_PER_CELL}")
        arr = np.array(rows)
        base = cells[cid]
        resid = np.empty(arr.shape[0])
        for hist_key in {tuple(r[2:6]) for r in rows}:
            mask = (arr[:, 2] == hist_key[0]) & (arr[:, 3] == hist_key[1]) \
                & (arr[:, 4] == hist_key[2]) & (arr[:, 5] == hist_key[3])
            cfg = base.replace(azimuth_deg=hist_key[0], tilt_deg=hist_key[1],
                               tx_power_dbm=hist_key[2],
                               pattern_id=int(hist_key[3]))
            pred, _ = best_beam_rsrp_dbm(cfg, arr[mask, 0:2], carrier_ghz)
            resid[mask] = arr[mask, 6] - pred
        gpr = GprRegressor()
        gpr.fit(arr[:, 0:4], resid)
        maps[cid] = gpr
    return maps


def predicted_rsrp(cell: CellConfig, gpr: GprRegressor, positions,
                   carrier_ghz: float) -> np.ndarray:
    """Analytic best-beam RSRP at the cell's current fields + GPR residual."""
    return _predicted_rsrp([cell], gpr, positions, carrier_ghz)[0]


def _predicted_rsrp(variants: list[CellConfig], gpr: GprRegressor,
                    positions, carrier_ghz: float) -> np.ndarray:
    """(variants, users) predicted RSRP of one cell under each variant of
    its config, with one GPR query over every (variant, user) pair."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    analytic = np.array([best_beam_rsrp_dbm(c, pos, carrier_ghz)[0]
                         for c in variants])
    angles = np.array([[c.azimuth_deg, c.tilt_deg] for c in variants])
    q = np.column_stack([np.tile(pos, (len(variants), 1)),
                         np.repeat(angles, pos.shape[0], axis=0)])
    return analytic + gpr.predict(q).reshape(analytic.shape)


def predict_network_throughput(cells: dict[str, CellConfig],
                               radio_maps: dict[str, GprRegressor],
                               positions, bandwidth_mhz: float,
                               carrier_ghz: float,
                               target_cell: str | None = None,
                               candidate_fields: dict | None = None,
                               demand_mbps: float = UNCAPPED_DEMAND_MBPS
                               ) -> float:
    """Re-attach users under predicted RSRP and sum per-cell throughput."""
    return _candidate_throughputs(cells, radio_maps, positions, bandwidth_mhz,
                                  carrier_ghz, target_cell,
                                  [candidate_fields or {}], demand_mbps)[0]


def _candidate_throughputs(cells, radio_maps, positions, bandwidth_mhz,
                           carrier_ghz, target_cell, candidates,
                           demand_mbps) -> list[float]:
    """Network throughput with target_cell set to each candidate's fields,
    all rated in one `attach_and_rate` call.  The other cells' RSRP does
    not change and is predicted once.  Candidates may differ only in
    fields the attachment rule does not read (pointing and power); the
    first candidate's carrier, CIO and channel fraction apply to all."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    ids = sorted(cells)
    eval_cells = [cells[cid] for cid in ids]
    rsrp = np.empty((len(candidates), len(ids), pos.shape[0]))
    for i, cid in enumerate(ids):
        if cid != target_cell:
            rsrp[:, i] = predicted_rsrp(cells[cid], radio_maps[cid], pos,
                                        carrier_ghz)
    if target_cell is not None:
        t = ids.index(target_cell)
        variants = [cells[target_cell].replace(**f) for f in candidates]
        eval_cells[t] = variants[0]
        rsrp[:, t] = _predicted_rsrp(variants, radio_maps[target_cell], pos,
                                     carrier_ghz)
    throughput = attach_and_rate(rsrp, eval_cells, bandwidth_mhz,
                                 demand_mbps)[4]
    return [sum(row) for row in throughput.tolist()]  # added in cell order


def estimate_demand_cap(measurement_rows) -> float:
    """Per-user demand estimate: the best rate any user ever achieved.

    Fully served users report rate == demand, so the historical maximum is a
    tight lower bound on the per-user demand cap."""
    best = max((r.get("rate_mbps", 0.0) for r in measurement_rows),
               default=0.0)
    return best if best > 0.0 else UNCAPPED_DEMAND_MBPS


def build_surrogate_dataset(cells, radio_maps, positions, bandwidth_mhz,
                            carrier_ghz, target_cell, bounds,
                            steps: dict | None = None,
                            demand_mbps: float = UNCAPPED_DEMAND_MBPS):
    """Predicted throughput at every point of one cell's candidate grid,
    scored CANDIDATE_BATCH candidates at a time.  Returns (X, y, names),
    points in np.ndindex order, X's columns the fields in names."""
    axes = build_grid_axes(bounds, steps)
    names = list(axes)
    idx = np.indices([len(axes[n]) for n in names]).reshape(len(names), -1).T
    X = np.column_stack([axes[n][idx[:, j]] for j, n in enumerate(names)])
    grid = [dict(zip(names, x)) for x in X.tolist()]
    y = []
    for i in range(0, len(grid), CANDIDATE_BATCH):
        y += _candidate_throughputs(cells, radio_maps, positions,
                                    bandwidth_mhz, carrier_ghz, target_cell,
                                    grid[i:i + CANDIDATE_BATCH], demand_mbps)
    return X, np.array(y), names


def recommend_config(measurement_rows, cells: dict[str, CellConfig],
                     config_log: ConfigLog, target_cell: str, bounds: dict,
                     bandwidth_mhz: float, carrier_ghz: float,
                     steps: dict | None = None):
    """Radio maps, then the best config of target_cell on the grid.

    Every grid point is scored exactly, and the first maximum in np.ndindex
    order wins, so ties go to the smaller (azimuth, tilt, power) tuple.
    Returns (fields, predicted_throughput_mbps).
    """
    maps = fit_radio_maps(measurement_rows, cells, config_log, carrier_ghz)
    t_latest = max(r["t_s"] for r in measurement_rows)
    latest = [r for r in measurement_rows if r["t_s"] == t_latest]
    positions = np.array([[r["pos_x_m"], r["pos_y_m"]] for r in latest])
    X, y, names = build_surrogate_dataset(
        cells, maps, positions, bandwidth_mhz, carrier_ghz, target_cell,
        bounds, steps, demand_mbps=estimate_demand_cap(measurement_rows))
    k = int(np.argmax(y))
    return dict(zip(names, X[k].tolist())), float(y[k])
