"""Scenario stepping: user draws, attachment, measurements and KPIs."""
from __future__ import annotations

import copy
import csv
import json
from pathlib import Path

import numpy as np

from ..errors import NotFoundError
from . import energy as energy_model
from .radio import ShadowField, best_beam_rsrp_dbm
from .scheduler import attach_and_rate, collision_ratio
from .types import KpiRecord, MeasurementRecord, Scenario, UserState


def load_scenario(path) -> Scenario:
    with open(path) as f:
        return Scenario.from_dict(json.load(f))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as f:
        json.dump(scenario.to_dict(), f, indent=2, sort_keys=True)


def hour_bucket(t_s: float) -> int:
    return int(t_s // 3600) % 24


def draw_users(scenario: Scenario, t_s: float) -> list[UserState]:
    """Seeded hotspot draw for the window starting at t_s."""
    rng = np.random.default_rng(
        np.random.SeedSequence([scenario.seed & 0xFFFFFFFF, int(t_s) & 0xFFFFFFFF]))
    mult = scenario.traffic_profile[hour_bucket(t_s)]
    users: list[UserState] = []
    for ci, cl in enumerate(scenario.clusters):
        n = int(round(cl.mean_users * mult))
        offsets = rng.normal(0.0, cl.std_m, size=(n, 2))
        for i in range(n):
            users.append(UserState(
                user_id=f"u{ci}-{i:03d}",
                pos=(float(cl.center[0] + offsets[i, 0]),
                     float(cl.center[1] + offsets[i, 1])),
                demand_mbps=cl.demand_mbps))
    return users


def shadow_fields(scenario: Scenario) -> dict[str, ShadowField | None]:
    if scenario.shadow_sigma_db <= 0.0:
        return {c.cell_id: None for c in scenario.cells}
    return {c.cell_id: ShadowField(scenario.seed, c.cell_id,
                                   scenario.shadow_sigma_db, scenario.shadow_corr_m)
            for c in scenario.cells}


def step(scenario: Scenario, window_len_s: float, t_s: float
         ) -> tuple[list[MeasurementRecord], list[KpiRecord]]:
    """Simulate one window: returns (measurement batch, KPI batch).

    Deterministic per (scenario, t): identical inputs give identical batches.
    """
    users = draw_users(scenario, t_s)
    shadows = shadow_fields(scenario)
    cells = scenario.cells
    pos = np.array([u.pos for u in users]).reshape(-1, 2)
    rsrp = np.empty((len(cells), len(users)))
    beam_idx = np.empty((len(cells), len(users)), dtype=int)
    for i, c in enumerate(cells):
        rsrp[i], beam_idx[i] = best_beam_rsrp_dbm(
            c, pos, scenario.carrier_ghz, shadows[c.cell_id])
    serving, sinr, rate, best_int, throughput, rbur = attach_and_rate(
        rsrp, cells, scenario.bandwidth_mhz, [u.demand_mbps for u in users])

    measurements: list[MeasurementRecord] = []
    kpis: list[KpiRecord] = []
    for i, c in enumerate(cells):
        idx = np.flatnonzero(serving == i)
        for k in idx:
            u = users[k]
            measurements.append(MeasurementRecord(
                timestamp_s=float(t_s), user_id=u.user_id, cell_id=c.cell_id,
                beam_id=int(beam_idx[i, k]), signal_type="SSB",
                rsrp_dbm=float(rsrp[i, k]), sinr_db=float(sinr[k]),
                rate_mbps=float(rate[k]), pos=u.pos))
        coll = collision_ratio(rsrp[i, idx], best_int[idx])
        power_w, _ = energy_model.energy_step(c, float(rbur[i]), window_len_s)
        kpis.append(KpiRecord(
            cell_id=c.cell_id, window_start_s=float(t_s),
            window_len_s=float(window_len_s),
            throughput_mbps=float(throughput[i]), rbur=float(rbur[i]),
            num_users=int(idx.size), power_w=float(power_w),
            collision_ratio=float(coll)))
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
