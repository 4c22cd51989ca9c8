"""Telemetry path shared by the workloads: simulate, drop, ingest, query.

One *slice* runs a scenario through hourly windows in three timed steps per
window, as an operator would:

* simulate: ``engine.step`` then ``engine.emit_window_csvs`` (``ranopt
  simulate``);
* ingest: the window's drop files through ``ingest_batch`` and ``quiesce``
  with the pipeline worker started;
* query: ``migrate_tiers``, then a fixed dashboard mix over the last window
  (hot) and the slice so far (mostly cold).

Between simulate and ingest the benchmark writes the drop files itself, in
the ``source_tag,seq_no`` envelope so that dedup engages, with a seeded ~1%
of malformed lines (one kind per reject code) and ~1% re-sent lines.  It
remembers the fate every line must meet and the rows every kept line must
produce, and checks the pipeline counters and every query result against
that record.  This oracle never calls ``run_aggregates``.
"""
from __future__ import annotations

import csv
import math
import operator
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ranopt.acquisition import AcquisitionPipeline
from ranopt.simcore import (CellConfig, HotspotCluster, KpiRecord,
                            MeasurementRecord, Scenario, engine)
from ranopt.warehouse import QueryTask, Warehouse, create_bundled_subjects

WINDOW_S = 3600.0
# Partitions more than two hours behind the newest window go cold, so the
# "slice so far" queries read mostly cold partitions.
HOT_WINDOW_S = 2 * 3600.0
FAULT_RATE = 0.01
RESEND_RATE = 0.01
MEAS_SOURCE = "drive-test"
KPI_SOURCE = "network-management"
FAULT_KINDS = ("MissingField", "OutOfRange", "InconsistentIds",
               "UnparsableValue", "ShortLine")
# A line with a column missing is rejected by ingest_batch itself, as
# UnparsableValue, and never reaches the pipeline counters.
LINE_LEVEL_KIND = "ShortLine"
REL_TOL = 1e-9

# Dashboard panels as (subject, filters, group_by, aggregates).  Each
# window refreshes every panel but the first over the last window (hot) and
# every panel over the slice so far (mostly cold).  The two coverage
# panels over the slice so far are the large cold scans; at 2 of 9 queries
# they put p90 inside the cold scans rather than on a group boundary.
_COVERAGE = ("beam-management", [("sinr_db", ">=", 0.0)], ["cell_id"],
             [("count", "*"), ("p50", "rsrp_dbm"), ("p95", "rate_mbps")])
QUERY_MIX = (
    ("beam-management", [("rsrp_dbm", "<", -95.0)], ["cell_id"],
     [("count", "*"), ("mean", "sinr_db")]),
    _COVERAGE,
    ("throughput", [], ["cell_id"],
     [("sum", "throughput_mbps"), ("mean", "rbur")]),
    ("interference", [], [],
     [("count", "*"), ("mean", "collision_ratio"),
      ("max", "collision_ratio")]),
    ("energy", [("rbur", ">", 0.0)], ["cell_id"],
     [("sum", "energy_wh"), ("max", "power_w")]),
)
HOT_PANELS = QUERY_MIX[1:]
SO_FAR_PANELS = QUERY_MIX


def hex_network(seed: int) -> Scenario:
    """7 sites x 3 sectors, one hotspot per sector, ~1,000 users per hour."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    isd = 500.0
    sites = [(0.0, 0.0)] + [
        (isd * math.cos(math.radians(60 * k + 30)),
         isd * math.sin(math.radians(60 * k + 30))) for k in range(6)]
    cells, clusters = [], []
    for s, (x, y) in enumerate(sites):
        for k, az in enumerate((30.0, 150.0, 270.0)):
            cells.append(CellConfig(
                cell_id=f"c{3 * s + k:02d}", site_pos=(x, y, 25.0),
                azimuth_deg=round((az + rng.uniform(-10, 10)) % 360.0, 1),
                tilt_deg=float(rng.integers(4, 9))))
            r = rng.uniform(120.0, 260.0)
            th = math.radians(az + rng.uniform(-30.0, 30.0))
            clusters.append(HotspotCluster(
                center=(x + r * math.cos(th), y + r * math.sin(th)),
                std_m=60.0, mean_users=50.0))
    profile = [0.95 + 0.05 * math.sin(2 * math.pi * (h - 9) / 24)
               for h in range(24)]
    return Scenario(cells=cells, clusters=clusters, traffic_profile=profile,
                    seed=int(rng.integers(1 << 31)))


def new_store(known_cells, hash_key: bytes
              ) -> tuple[Warehouse, AcquisitionPipeline]:
    warehouse = Warehouse(hot_window_s=HOT_WINDOW_S)
    create_bundled_subjects(warehouse)
    return warehouse, AcquisitionPipeline(warehouse, known_cells,
                                          hash_key=hash_key)


# -- drop files ---------------------------------------------------------

def _meas_row(m: MeasurementRecord) -> dict:
    return {"t_s": m.timestamp_s, "cell_id": m.cell_id,
            "beam_id": m.beam_id, "signal_type": m.signal_type,
            "rsrp_dbm": m.rsrp_dbm, "sinr_db": m.sinr_db,
            "rate_mbps": m.rate_mbps, "pos_x_m": m.pos[0],
            "pos_y_m": m.pos[1], "source_tag": MEAS_SOURCE}


def _kpi_rows(k: KpiRecord) -> dict:
    base = {"t_s": k.window_start_s, "cell_id": k.cell_id,
            "source_tag": KPI_SOURCE}
    return {
        "throughput": {**base, "window_len_s": k.window_len_s,
                       "throughput_mbps": k.throughput_mbps,
                       "rbur": k.rbur, "num_users": k.num_users},
        "interference": {**base, "collision_ratio": k.collision_ratio,
                         "num_users": k.num_users},
        "energy": {**base, "window_len_s": k.window_len_s, "rbur": k.rbur,
                   "power_w": k.power_w,
                   "energy_wh": k.power_w * k.window_len_s / 3600.0},
    }


def _corrupt(cells: list[str], header: tuple, kind: str) -> list[str]:
    """Apply one fault kind to a payload line (without envelope)."""
    out = list(cells)
    col = {name: i for i, name in enumerate(header)}
    is_meas = "rsrp_dbm" in col
    if kind == "MissingField":
        out[col["rate_mbps" if is_meas else "power_w"]] = ""
    elif kind == "OutOfRange":
        if is_meas:
            out[col["rsrp_dbm"]] = "-400.0"
        else:
            out[col["throughput_mbps"]] = "-5.0"
    elif kind == "InconsistentIds":
        out[col["cell_id"]] = "ghost"
    elif kind == "UnparsableValue":
        out[col["sinr_db" if is_meas else "rbur"]] = "loud"
    else:
        out = out[:-1]
    return out


@dataclass
class Expected:
    """What the pipeline must do with the drop files written so far."""
    lines: int = 0
    kept: int = 0
    duplicates: int = 0
    # (source_tag, seq_no) -> reject code value, for clean-stage rejects
    rejects: dict = field(default_factory=dict)
    # (file name, line number) for rejects ingest_batch returns itself
    line_rejects: set = field(default_factory=set)
    rows: dict = field(default_factory=dict)  # subject -> kept row dicts

    def add_row(self, subject: str, row: dict) -> None:
        self.rows.setdefault(subject, []).append(row)


class DropWriter:
    """Writes enveloped drop files with seeded faults and re-sends."""

    def __init__(self, out_dir: Path, seed: int):
        self.out_dir = out_dir
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
        self.seq = {MEAS_SOURCE: 0, KPI_SOURCE: 0}
        self.expected = Expected()
        self.files = 0

    def write_window(self, meas, kpis) -> list[Path]:
        paths = []
        for source, header, recs in (
                (MEAS_SOURCE, MeasurementRecord.CSV_HEADER, meas),
                (KPI_SOURCE, KpiRecord.CSV_HEADER, kpis)):
            path = self.out_dir / f"drop-{self.files:05d}.csv"
            self.files += 1
            self._write_file(path, source, header, recs)
            paths.append(path)
        return paths

    def _write_file(self, path: Path, source: str, header: tuple,
                    recs) -> None:
        exp = self.expected
        lines, resend = [], []
        for rec in recs:
            seq = self.seq[source]
            self.seq[source] += 1
            payload = [str(v) for v in rec.csv_row()]
            draw = self.rng.random()
            if draw < FAULT_RATE:
                kind = FAULT_KINDS[int(self.rng.integers(len(FAULT_KINDS)))]
                line = [source, str(seq)] + _corrupt(payload, header, kind)
                lines.append(line)
                if kind == LINE_LEVEL_KIND:
                    exp.line_rejects.add((path.name, len(lines) + 1))
                else:
                    exp.rejects[(source, seq)] = kind
                continue
            line = [source, str(seq)] + payload
            lines.append(line)
            exp.kept += 1
            if source == MEAS_SOURCE:
                exp.add_row("beam-management", _meas_row(rec))
            else:
                for subject, row in _kpi_rows(rec).items():
                    exp.add_row(subject, row)
            if draw < FAULT_RATE + RESEND_RATE:
                resend.append(line)
                exp.duplicates += 1
        lines += resend
        exp.lines += len(lines)
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(("source_tag", "seq_no") + tuple(header))
            w.writerows(lines)


def check_fates(pipeline: AcquisitionPipeline, expected: Expected,
                line_rejects: set) -> list[str]:
    """Every line kept, rejected with its injected code, or a duplicate."""
    errors = []
    c = pipeline.counters
    n_clean_rejects = len(expected.rejects)
    want = {"ingested": expected.kept + n_clean_rejects,
            "kept": expected.kept, "rejected": n_clean_rejects,
            "duplicates": expected.duplicates}
    for key, value in want.items():
        if c.get(key) != value:
            errors.append(f"counter {key}={c.get(key)} expected {value}")
    got = {(rec.source_tag, rec.seq_no): reason.code.value
           for rec, reason in pipeline.rejects}
    if got != expected.rejects:
        wrong = sorted(set(got.items()) ^ set(expected.rejects.items()))
        errors.append(f"reject codes differ: {wrong[:3]}")
    if line_rejects != expected.line_rejects:
        errors.append("line-level rejects differ: "
                      f"{sorted(line_rejects ^ expected.line_rejects)[:3]}")
    return errors


# -- queries and their naive oracle --------------------------------------

def query_tasks(t0: float, t1: float):
    """(tier, QueryTask) pairs of the dashboard mix for window [t0, t1)."""
    for tier, lo, panels in (("hot", t0, HOT_PANELS),
                             ("cold", 0.0, SO_FAR_PANELS)):
        for subject, filters, group_by, aggs in panels:
            yield tier, QueryTask(subject=subject, t0=lo, t1=t1,
                                  filters=list(filters),
                                  group_by=list(group_by),
                                  aggregates=list(aggs))


_OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, written out by hand."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _aggregate(agg: str, values: list):
    if agg == "count":
        return len(values)
    if not values:
        return float("nan")
    if agg == "sum":
        return math.fsum(values)
    if agg == "mean":
        return math.fsum(values) / len(values)
    if agg == "min":
        return min(values)
    if agg == "max":
        return max(values)
    return _percentile(values, 50.0 if agg == "p50" else 95.0)


def naive_query(task: QueryTask, rows: list[dict]) -> tuple[list, dict]:
    """(header, {group key: aggregate values}) by a plain scan of rows."""
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        if not task.t0 <= r["t_s"] < task.t1:
            continue
        if all(_OPS[op](r[col], lit) for col, op, lit in task.filters):
            groups.setdefault(tuple(r[c] for c in task.group_by),
                              []).append(r)
    if not task.group_by and not groups:
        groups[()] = []
    header = list(task.group_by) + [f"{a}({c})" for a, c in task.aggregates]
    out = {key: tuple(_aggregate(a, grp if c == "*" else [r[c] for r in grp])
                      for a, c in task.aggregates)
           for key, grp in groups.items()}
    return header, out


def rows_in_range(task: QueryTask, rows: list[dict]) -> int:
    return sum(1 for r in rows if task.t0 <= r["t_s"] < task.t1)


def _close(a, b) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def compare(result, naive) -> str | None:
    """None when the warehouse result matches the naive oracle."""
    header, want = naive
    if list(result.header) != header:
        return f"header {result.header} != {header}"
    n_keys = len(header) - len(next(iter(want.values()), ()))
    got = {tuple(row[:n_keys]): tuple(row[n_keys:]) for row in result.rows}
    if len(got) != len(result.rows) or set(got) != set(want):
        return f"groups {sorted(got)[:3]} != {sorted(want)[:3]}"
    for key, vals in want.items():
        if not all(_close(g, w) for g, w in zip(got[key], vals)):
            return f"group {key}: {got[key]} != {vals}"
    return None


# -- one slice -----------------------------------------------------------

@dataclass
class SliceResult:
    sim_window_s: list = field(default_factory=list)
    window_s: list = field(default_factory=list)  # simulate+ingest+query
    ingest_lines: int = 0
    ingest_s: float = 0.0
    query_ms: list = field(default_factory=list)
    kpi_throughput: list = field(default_factory=list)  # per window, Mbps
    outputs: list = field(default_factory=list)  # query CSVs, for replay
    attempted: int = 0
    errors: list = field(default_factory=list)


def run_slice(scenario: Scenario, n_windows: int, drop_dir: Path,
              seed: int, tracer, phase) -> SliceResult:
    """Simulate, ingest and query n_windows hourly windows from t=0."""
    out = SliceResult()
    drop_dir.mkdir(parents=True, exist_ok=True)
    sim_dir = drop_dir / "sim"
    writer = DropWriter(drop_dir, seed)
    warehouse, pipeline = new_store([c.cell_id for c in scenario.cells],
                                    hash_key=f"bench-{seed}".encode())
    line_rejects: set = set()
    pipeline.start()
    try:
        for w in range(n_windows):
            t = w * WINDOW_S
            phase.set(f"window {w}: simulate")
            a = time.perf_counter()
            meas, kpis = engine.step(scenario, WINDOW_S, t)
            engine.emit_window_csvs(sim_dir, meas, kpis, suffix=f"-{int(t)}")
            sim_s = time.perf_counter() - a
            out.sim_window_s.append(sim_s)
            out.kpi_throughput.append(sum(k.throughput_mbps for k in kpis))
            paths = writer.write_window(meas, kpis)

            phase.set(f"window {w}: ingest")
            a = time.perf_counter()
            for path in paths:
                _, rejects = pipeline.ingest_batch(path)
                line_rejects.update((path.name, r.line_no) for r in rejects)
            pipeline.quiesce()
            ingest_s = time.perf_counter() - a
            out.ingest_s += ingest_s
            out.attempted += len(paths)

            phase.set(f"window {w}: query")
            a = time.perf_counter()
            warehouse.migrate_tiers(t + WINDOW_S)
            query_s = time.perf_counter() - a
            for tier, task in query_tasks(t, t + WINDOW_S):
                rows = writer.expected.rows.get(task.subject, [])
                tracer.count(f"warehouse.query.{tier}.rows",
                             rows_in_range(task, rows))
                with tracer.tag(tier):
                    b = time.perf_counter()
                    result = warehouse.query(task)
                    took = time.perf_counter() - b
                query_s += took
                out.query_ms.append(took * 1e3)
                out.attempted += 1
                err = compare(result, naive_query(task, rows))
                if err:
                    out.errors.append(f"window {w} {tier} {task.subject}: "
                                      f"{err}")
                out.outputs.append(result.to_csv())
            out.window_s.append(sim_s + ingest_s + query_s)
        out.ingest_lines = writer.expected.lines
    finally:
        phase.set("pipeline stop")
        pipeline.stop()
    out.errors += check_fates(pipeline, writer.expected, line_rejects)
    out.attempted += n_windows
    return out
