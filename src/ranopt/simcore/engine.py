"""Scenario stepping: user draws, attachment, measurements and KPIs."""
from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from ..errors import NotFoundError, ValidationError
from . import energy as energy_model
from .radio import ShadowField, best_beam_rsrp_dbm
from .scheduler import attach_and_rate, collision_ratio
from .types import KpiRecord, MeasurementRecord, Scenario


SHADOW_FIELDS_CACHED = 256  # cells' shadowing fields kept across steps


def load_scenario(path) -> Scenario:
    """The scenario of a JSON file; ValidationError if the file is not
    JSON or not a scenario's fields."""
    with open(path) as f:
        try:
            return Scenario.from_dict(json.load(f))
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(
                f"scenario {path}: {type(e).__name__}: {e}") from None


def hour_bucket(t_s: float) -> int:
    return int(t_s // 3600) % 24


def draw_positions(scenario: Scenario, t_s: float) -> list[np.ndarray]:
    """Seeded hotspot draw for the window starting at t_s: the (n, 2)
    positions of each cluster's users, cluster by cluster."""
    rng = np.random.default_rng(
        np.random.SeedSequence([scenario.seed & 0xFFFFFFFF, int(t_s) & 0xFFFFFFFF]))
    mult = scenario.traffic_profile[hour_bucket(t_s)]
    per_cluster = []
    for cl in scenario.clusters:
        n = int(round(cl.mean_users * mult))
        per_cluster.append(np.asarray(cl.center, dtype=float)
                           + rng.normal(0.0, cl.std_m, size=(n, 2)))
    return per_cluster


def user_ids(users_per_cluster) -> list[str]:
    """User ids of a draw: u<cluster>-<index within the cluster>."""
    return [f"u{ci}-{i:03d}" for ci, n in enumerate(users_per_cluster)
            for i in range(n)]


def shadow_fields(scenario: Scenario) -> dict[str, ShadowField | None]:
    if scenario.shadow_sigma_db <= 0.0:
        return {c.cell_id: None for c in scenario.cells}
    return {c.cell_id: _shadow_field(scenario.seed, c.cell_id,
                                     scenario.shadow_sigma_db,
                                     scenario.shadow_corr_m)
            for c in scenario.cells}


@lru_cache(maxsize=SHADOW_FIELDS_CACHED)
def _shadow_field(seed: int, cell_id: str, sigma_db: float,
                  corr_m: float) -> ShadowField:
    """A cell's shadowing, a pure function of these four values; built once
    rather than on every `step`, and read-only, so sharing it is safe."""
    return ShadowField(seed, cell_id, sigma_db, corr_m)


@dataclass(eq=False)
class Window:
    """One simulated window as arrays, users in draw order.

    Per user: position (n, 2), serving cell index (-1 with every
    carrier off), SINR (NaN if unattached), rate and strongest interferer
    RSRP (-inf if none); per (cell, user): best-beam RSRP and beam index;
    per cell: throughput, rbur, attached users, site power and collision
    ratio.  `users_per_cluster` names the users (`user_ids`)."""
    t_s: float
    window_len_s: float
    cell_ids: tuple
    users_per_cluster: tuple
    pos: np.ndarray
    serving: np.ndarray
    rsrp: np.ndarray
    beam: np.ndarray
    sinr: np.ndarray
    rate: np.ndarray
    best_interferer: np.ndarray
    throughput: np.ndarray
    rbur: np.ndarray
    num_users: np.ndarray
    power_w: np.ndarray
    collision: np.ndarray

    def serving_ids(self) -> np.ndarray:
        """Each user's serving cell id as an object array; None where
        unattached (serving -1 picks the None appended last)."""
        return np.array([*self.cell_ids, None], dtype=object)[self.serving]


def window(scenario: Scenario, window_len_s: float, t_s: float) -> Window:
    """Simulate one window as arrays; deterministic per (scenario, t)."""
    per_cluster = draw_positions(scenario, t_s)
    pos = np.concatenate([np.empty((0, 2)), *per_cluster])
    sizes = tuple(len(p) for p in per_cluster)
    demand = np.repeat([float(cl.demand_mbps) for cl in scenario.clusters],
                       sizes)
    shadows = shadow_fields(scenario)
    cells = scenario.cells
    rsrp = np.empty((len(cells), len(pos)))
    beam = np.empty((len(cells), len(pos)), dtype=int)
    for i, c in enumerate(cells):
        rsrp[i], beam[i] = best_beam_rsrp_dbm(
            c, pos, scenario.carrier_ghz, shadows[c.cell_id])
    serving, sinr, rate, best_int, throughput, rbur = attach_and_rate(
        rsrp, cells, scenario.bandwidth_mhz, demand)
    num_users = np.zeros(len(cells), dtype=int)
    power_w, collision = np.zeros(len(cells)), np.zeros(len(cells))
    for i, c in enumerate(cells):
        idx = np.flatnonzero(serving == i)
        num_users[i] = idx.size
        collision[i] = collision_ratio(rsrp[i, idx], best_int[idx])
        power_w[i], _ = energy_model.energy_step(c, float(rbur[i]),
                                                 window_len_s)
    return Window(float(t_s), float(window_len_s),
                  tuple(c.cell_id for c in cells), sizes, pos, serving, rsrp,
                  beam, sinr, rate, best_int, throughput, rbur, num_users,
                  power_w, collision)


def step(scenario: Scenario, window_len_s: float, t_s: float
         ) -> tuple[list[MeasurementRecord], list[KpiRecord]]:
    """Simulate one window: returns (measurement batch, KPI batch), the
    record view of `window`: measurements cell by cell, each cell's users
    in draw order.

    Deterministic per (scenario, t): identical inputs give identical batches.
    """
    w = window(scenario, window_len_s, t_s)
    # a stable sort keeps each cell's users in draw order
    order = np.argsort(w.serving, kind="stable")
    order = order[w.serving[order] >= 0]
    cell = w.serving[order]
    ids, pos = user_ids(w.users_per_cluster), w.pos.tolist()
    sinr, rate = w.sinr.tolist(), w.rate.tolist()
    measurements = [MeasurementRecord(
        timestamp_s=w.t_s, user_id=ids[k], cell_id=w.cell_ids[i],
        beam_id=b, signal_type="SSB", rsrp_dbm=r, sinr_db=sinr[k],
        rate_mbps=rate[k], pos=tuple(pos[k]))
        for k, i, r, b in zip(order.tolist(), cell.tolist(),
                              w.rsrp[cell, order].tolist(),
                              w.beam[cell, order].tolist())]
    kpis = [KpiRecord(cell_id=cid, window_start_s=w.t_s,
                      window_len_s=w.window_len_s, throughput_mbps=tp,
                      rbur=rb, num_users=n, power_w=pw, collision_ratio=cr)
            for cid, tp, rb, n, pw, cr in zip(
                w.cell_ids, w.throughput.tolist(), w.rbur.tolist(),
                w.num_users.tolist(), w.power_w.tolist(),
                w.collision.tolist())]
    return measurements, kpis


def apply_command(scenario: Scenario, cell_id: str, fields: dict) -> Scenario:
    """Return an updated scenario with only the named fields changed."""
    found = False
    new_cells = []
    for c in scenario.cells:
        if c.cell_id == cell_id:
            c2 = c.replace(**fields)
            c2.validate()
            new_cells.append(c2)
            found = True
        else:
            new_cells.append(c)
    if not found:
        raise NotFoundError(f"unknown cell_id {cell_id!r}")
    out = copy.copy(scenario)
    out.cells = new_cells
    return out


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def emit_window_csvs(out_dir, measurements, kpis, suffix="") -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mpath = out / f"measurements{suffix}.csv"
    kpath = out / f"kpis{suffix}.csv"
    write_csv(mpath, MeasurementRecord.CSV_HEADER, [m.csv_row() for m in measurements])
    write_csv(kpath, KpiRecord.CSV_HEADER, [k.csv_row() for k in kpis])
    return mpath, kpath
