"""Throughput use case: radio-map models and candidate config scoring.

Per cell, a GPR learns the residual between measured RSRP and the analytic
antenna/propagation model at the config that was active when each sample was
taken. Candidate configs are then scored by analytic model + learned residual,
users are re-attached, and network throughput is predicted. A surrogate MLP
trained on the candidate grid drives the final config search.
Scoring uses the simulator's ``best_beam_rsrp_dbm`` and ``attach_and_rate``;
over a grid only the target cell's RSRP is predicted again per point.
"""
from __future__ import annotations

import numpy as np

from ..errors import InsufficientHistory
from ..simcore.radio import best_beam_rsrp_dbm
from ..simcore.scheduler import attach_and_rate
from ..simcore.types import CellConfig
from .gpr import GprRegressor
from .surrogate import build_grid_axes, fit_surrogate, optimize_config

UNCAPPED_DEMAND_MBPS = 1e9
MIN_SAMPLES_PER_CELL = 8


class ConfigLog:
    """Time-ordered record of which config each cell had in each window."""

    def __init__(self):
        self._entries: list[tuple[float, dict[str, dict]]] = []

    def record(self, t_s: float, cells: dict[str, CellConfig]) -> None:
        snap = {cid: {"azimuth_deg": c.azimuth_deg, "tilt_deg": c.tilt_deg,
                      "tx_power_dbm": c.tx_power_dbm,
                      "pattern_id": c.pattern_id}
                for cid, c in cells.items()}
        self._entries.append((float(t_s), snap))
        self._entries.sort(key=lambda e: e[0])

    def lookup(self, cell_id: str, t_s: float) -> dict | None:
        """Config fields active for cell_id at time t_s, or None."""
        best = None
        for t0, snap in self._entries:
            if t0 <= t_s and cell_id in snap:
                best = snap[cell_id]
        return best


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
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    analytic, _ = best_beam_rsrp_dbm(cell, pos, carrier_ghz)
    q = np.column_stack([pos,
                         np.full(pos.shape[0], cell.azimuth_deg),
                         np.full(pos.shape[0], cell.tilt_deg)])
    return analytic + gpr.predict(q)


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
    """Network throughput with target_cell set to each candidate's fields in
    turn; the other cells' RSRP does not change and is predicted once."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    ids = sorted(cells)
    eval_cells = [cells[cid] for cid in ids]
    rsrp = np.empty((len(ids), pos.shape[0]))
    for i, cid in enumerate(ids):
        if cid != target_cell:
            rsrp[i] = predicted_rsrp(cells[cid], radio_maps[cid], pos,
                                     carrier_ghz)
    out = []
    for fields in candidates:
        if target_cell is not None:
            t = ids.index(target_cell)
            eval_cells[t] = cells[target_cell].replace(**fields)
            rsrp[t] = predicted_rsrp(eval_cells[t], radio_maps[target_cell],
                                     pos, carrier_ghz)
        throughput = attach_and_rate(rsrp, eval_cells, bandwidth_mhz,
                                     demand_mbps)[4]
        out.append(float(sum(throughput.tolist())))  # added in cell order
    return out


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
    """Predicted throughput over the whole candidate grid of one cell."""
    axes = build_grid_axes(bounds, steps)
    names = list(axes)
    grid = [{n: float(axes[n][i]) for n, i in zip(names, idx)}
            for idx in np.ndindex(*[len(axes[n]) for n in names])]
    X = [[f.get("azimuth_deg", 0.0), f.get("tilt_deg", 0.0),
          f.get("tx_power_dbm", 0.0)][:len(names)] for f in grid]
    y = _candidate_throughputs(cells, radio_maps, positions, bandwidth_mhz,
                               carrier_ghz, target_cell, grid, demand_mbps)
    return np.array(X), np.array(y), names


def recommend_config(measurement_rows, cells: dict[str, CellConfig],
                     config_log: ConfigLog, target_cell: str, bounds: dict,
                     bandwidth_mhz: float, carrier_ghz: float,
                     steps: dict | None = None, seed: int = 0):
    """Full pipeline: radio maps -> grid dataset -> surrogate -> argmax.

    Returns (fields, predicted_throughput_mbps).
    """
    maps = fit_radio_maps(measurement_rows, cells, config_log, carrier_ghz)
    t_latest = max(r["t_s"] for r in measurement_rows)
    latest = [r for r in measurement_rows if r["t_s"] == t_latest]
    positions = np.array([[r["pos_x_m"], r["pos_y_m"]] for r in latest])
    X, y, names = build_surrogate_dataset(
        cells, maps, positions, bandwidth_mhz, carrier_ghz, target_cell,
        bounds, steps, demand_mbps=estimate_demand_cap(measurement_rows))
    surrogate = fit_surrogate(X, y, seed=seed)
    fields, predicted = optimize_config(surrogate, bounds, steps)
    return fields, predicted
