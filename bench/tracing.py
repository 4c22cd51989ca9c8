"""Spans and counts around calls into each ranopt layer, for the traced run.

The tracer wraps public functions and methods at the module or class
attribute their callers look them up through (``engine.step`` for the loop
and the DQN trainer, ``best_beam_rsrp_dbm`` in each importing module,
methods on their classes).  Nothing is wrapped in an untraced run, and
``uninstall`` puts every original back and reports any that did not return.

An attribute a later version of ranopt no longer has is skipped and listed
in ``missing``; the per-layer metrics it fed then read 0.
"""
from __future__ import annotations

import contextlib
import importlib
import threading
import time
from collections import Counter

from ranopt.acquisition import RejectCode


def _step_size(args, result):
    return len(args[0].cells) * len(result[0])


def _ingest_size(args, result):
    return args[0], [r.code.value for r in result[1]]


def _scan_size(args, result):
    subject = args[1] if len(args) > 1 else None
    return subject, len(result)


# (module, attribute path, span name, what to keep of a call).  Spans keep
# only these small summaries, never arguments or results, so a traced day
# holds no extra copies of the warehouse.
WRAPS = (
    ("ranopt.simcore.engine", "step", "simcore.step", _step_size),
    ("ranopt.simcore.engine", "emit_window_csvs", "simcore.emit_csv", None),
    ("ranopt.simcore.engine", "apply_command", "simcore.apply_command",
     None),
    ("ranopt.simcore.engine", "best_beam_rsrp_dbm", "simcore.best_beam",
     None),
    ("ranopt.ai.throughput", "best_beam_rsrp_dbm", "simcore.best_beam",
     None),
    ("ranopt.loop.runner", "best_beam_rsrp_dbm", "simcore.best_beam", None),
    ("ranopt.acquisition.pipeline", "AcquisitionPipeline.ingest_batch",
     "acquisition.ingest_batch", _ingest_size),
    ("ranopt.acquisition.pipeline", "AcquisitionPipeline.quiesce",
     "acquisition.quiesce", None),
    ("ranopt.warehouse.store", "Warehouse.append", "warehouse.append",
     lambda args, result: result),
    ("ranopt.warehouse.store", "Warehouse.migrate_tiers",
     "warehouse.migrate", None),
    ("ranopt.warehouse.store", "Warehouse.query", "warehouse.query", None),
    ("ranopt.warehouse.store", "Warehouse.scan", "warehouse.scan",
     _scan_size),
    ("ranopt.ai.throughput", "fit_radio_maps", "ai.fit_radio_maps", None),
    ("ranopt.ai.gpr", "GprRegressor.fit", "ai.gpr.fit",
     lambda args, result: len(args[1])),
    ("ranopt.ai.throughput", "build_surrogate_dataset", "ai.surrogate_grid",
     lambda args, result: len(result[1])),
    ("ranopt.ai.throughput", "predict_network_throughput",
     "ai.predict_throughput", None),
    ("ranopt.ai.throughput", "fit_surrogate", "ai.fit_surrogate", None),
    ("ranopt.ai.throughput", "optimize_config", "ai.optimize_config", None),
    ("ranopt.ai.surrogate", "_NormalizedSurrogate.predict",
     "ai.surrogate_predict", None),
    ("ranopt.ai.dqn", "DqnAgent.learn", "ai.dqn.learn", None),
    ("ranopt.ai.dqn", "observe", "ai.dqn.observe", None),
    ("ranopt.loop.runner", "ClosedLoop.run_epoch", "loop.run_epoch", None),
)

LOOP_STAGES = ("sense", "snapshot", "optimize", "apply", "verify")
KPI_SUBJECTS = ("throughput", "interference", "energy")
REJECT_CODES = tuple(c.value for c in RejectCode
                     if c is not RejectCode.DUPLICATE_SEQ)


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "info")

    def __init__(self, name, parent, thread):
        self.name, self.parent, self.thread = name, parent, thread
        self.start = self.end = self.info = None


class NullTracer:
    """Stands in for the tracer in untraced runs."""

    def count(self, name: str, n: int = 1) -> None:
        pass

    @contextlib.contextmanager
    def tag(self, value: str):
        yield


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []
        self._tag = None
        self._main = threading.get_ident()

    # -- recording ------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    @contextlib.contextmanager
    def tag(self, value: str):
        """Suffix the names of spans opened inside, e.g. a query's tier."""
        self._tag = value
        try:
            yield
        finally:
            self._tag = None

    def open_span(self) -> str | None:
        """Innermost span still open on the main thread, if any."""
        for span in reversed(self.spans):
            if span.end is None and span.thread == self._main:
                return span.name
        return None

    def _wrap(self, fn, name: str, keep):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = Span(name if tracer._tag is None
                        else f"{name}.{tracer._tag}",
                        stack[-1] if stack else None, threading.get_ident())
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if keep is not None:
                span.info = keep(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing -----------------------------------------------------
    def install(self) -> None:
        for module_name, path, span_name, keep in WRAPS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            try:
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, keep))

    def uninstall(self) -> list[str]:
        """Restore every wrapped attribute; names any that did not return."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}"
                for o, a, orig in self._originals if o.__dict__[a] is not orig]
        self._originals = []
        return left


# -- per-layer metrics ----------------------------------------------------

def unit_of(name: str) -> str:
    if name.endswith(".rows_per_s"):
        return "rows/s"
    if name.endswith(".us_per_cell_user"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def _covered_ns(children: list[Span]) -> int:
    """Length of the union of the children's intervals."""
    total, cur_start, cur_end = 0, None, None
    for s in sorted(children, key=lambda s: s.start):
        if cur_end is None or s.start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s.start, s.end
        else:
            cur_end = max(cur_end, s.end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _loop_stages(epoch: Span, children: list[Span]) -> dict[str, int]:
    """Split one run_epoch span into the loop's five stages, in ns.

    sense ends when the first quiesce returns; snapshot ends with the last
    of the KPI-subject scans that follow it; apply starts with the
    command's span, if any; verify starts with the epoch's second simulator
    step.  Time between spans goes to the stage it falls in.
    """
    kids = sorted(children, key=lambda s: s.start)
    sense_end = next((s.end for s in kids
                      if s.name == "acquisition.quiesce"), epoch.start)
    steps = [s for s in kids if s.name == "simcore.step"]
    verify_start = steps[1].start if len(steps) > 1 else epoch.end
    middle = [s for s in kids
              if s.start >= sense_end and s.end <= verify_start]
    snap_end = sense_end
    for s in middle:
        if s.name != "warehouse.scan":
            break
        if s.info[0] in KPI_SUBJECTS:
            snap_end = s.end
    applies = [s for s in middle if s.name == "simcore.apply_command"]
    apply_start = applies[0].start if applies else verify_start
    return {"sense": sense_end - epoch.start,
            "snapshot": snap_end - sense_end,
            "optimize": apply_start - snap_end,
            "apply": verify_start - apply_start,
            "verify": epoch.end - verify_start}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans and counts recorded so far."""
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        if s.end is not None:
            by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def secs(name):
        return sum(s.end - s.start for s in spans(name)) / 1e9

    m: dict[str, float] = {}
    # simcore
    m["simcore.step.calls"] = len(spans("simcore.step"))
    m["simcore.step.s"] = secs("simcore.step")
    cell_users = sum(s.info for s in spans("simcore.step"))
    m["simcore.step.us_per_cell_user"] = (
        m["simcore.step.s"] * 1e6 / cell_users if cell_users else 0.0)
    m["simcore.best_beam.calls"] = len(spans("simcore.best_beam"))
    m["simcore.best_beam.s"] = secs("simcore.best_beam")
    m["simcore.emit_csv.s"] = secs("simcore.emit_csv")
    # acquisition: the counters of every pipeline fed by ingest_batch, plus
    # the line-level rejects that ingest_batch returns but does not count
    m["acquisition.ingest_batch.s"] = secs("acquisition.ingest_batch")
    m["acquisition.quiesce.s"] = secs("acquisition.quiesce")
    rejected = Counter()
    records = 0
    pipelines = {}
    for s in spans("acquisition.ingest_batch"):
        pipeline, line_rejects = s.info
        pipelines[id(pipeline)] = pipeline
        records += len(line_rejects)
        rejected.update(line_rejects)
    kept = duplicates = 0
    for p in pipelines.values():
        kept += p.counters["kept"]
        duplicates += p.counters["duplicates"]
        records += p.counters["ingested"] + p.counters["duplicates"]
        rejected.update(reason.code.value for _, reason in p.rejects)
    m["acquisition.records"] = records
    m["acquisition.kept"] = kept
    for code in REJECT_CODES:
        m[f"acquisition.rejected.{code}"] = rejected[code]
    m["acquisition.duplicates"] = duplicates
    m["acquisition.kept_ratio"] = kept / records if records else 0.0
    # warehouse; scans inside a query carry the query's tier suffix and
    # count toward the query figures, not these
    m["warehouse.append.calls"] = len(spans("warehouse.append"))
    m["warehouse.append.rows"] = sum(s.info for s in spans("warehouse.append"))
    m["warehouse.append.s"] = secs("warehouse.append")
    m["warehouse.migrate.s"] = secs("warehouse.migrate")
    for tier in ("hot", "cold"):
        took = secs(f"warehouse.query.{tier}")
        rows = tracer.counts[f"warehouse.query.{tier}.rows"]
        m[f"warehouse.query.{tier}.rows_per_s"] = rows / took if took else 0.0
    m["warehouse.scan.calls"] = len(spans("warehouse.scan"))
    m["warehouse.scan.rows"] = sum(s.info[1] for s in spans("warehouse.scan"))
    m["warehouse.scan.s"] = secs("warehouse.scan")
    # ai
    m["ai.fit_radio_maps.s"] = secs("ai.fit_radio_maps")
    m["ai.gpr.fit.calls"] = len(spans("ai.gpr.fit"))
    m["ai.gpr.fit.s"] = secs("ai.gpr.fit")
    m["ai.gpr.train_rows"] = sum(s.info for s in spans("ai.gpr.fit"))
    m["ai.surrogate_grid.s"] = secs("ai.surrogate_grid")
    m["ai.surrogate_grid.points"] = sum(s.info
                                        for s in spans("ai.surrogate_grid"))
    m["ai.predict_throughput.calls"] = len(spans("ai.predict_throughput"))
    m["ai.fit_surrogate.s"] = secs("ai.fit_surrogate")
    m["ai.optimize_config.s"] = secs("ai.optimize_config")
    m["ai.surrogate_predict.calls"] = len(spans("ai.surrogate_predict"))
    m["ai.dqn.learn.calls"] = len(spans("ai.dqn.learn"))
    m["ai.dqn.learn.s"] = secs("ai.dqn.learn")
    m["ai.dqn.observe.s"] = secs("ai.dqn.observe")
    # loop
    epochs = spans("loop.run_epoch")
    children: dict[int, list[Span]] = {id(e): [] for e in epochs}
    for s in tracer.spans:
        if s.end is not None and s.parent is not None \
                and id(s.parent) in children:
            children[id(s.parent)].append(s)
    m["loop.run_epoch.s"] = secs("loop.run_epoch")
    m["loop.self.s"] = sum(e.end - e.start - _covered_ns(children[id(e)])
                           for e in epochs) / 1e9
    stages = Counter()
    for e in epochs:
        stages.update(_loop_stages(e, children[id(e)]))
    for stage in LOOP_STAGES:
        m[f"loop.{stage}.s"] = stages[stage] / 1e9
    m["trace.spans"] = len(tracer.spans)
    return m


# Which end-to-end metric each per-layer metric should move, and where;
# the longest matching name prefix applies.
TARGETS = {
    "simcore.step.": "sim_window_p50_s on telemetry-day; train_steps_per_s "
                     "and epoch_p50_s on loop-interference",
    "simcore.best_beam.": "loop_s and epoch_p50_s on loop-throughput",
    "simcore.emit_csv.": "sim_window_p50_s on telemetry-day",
    "acquisition.": "ingest_rec_per_s on telemetry-day; epoch_p50_s on "
                    "loop-interference",
    "acquisition.re": "none: checks the traffic, not the speed",
    "acquisition.kept": "none: checks the traffic, not the speed",
    "acquisition.duplicates": "none: checks the traffic, not the speed",
    "warehouse.": "ingest_rec_per_s on telemetry-day",
    "warehouse.query.": "query_p50_ms and query_p90_ms on telemetry-day",
    "warehouse.scan.": "epoch_p50_s on loop-throughput and "
                       "loop-interference",
    "ai.": "epoch_p50_s and loop_s on loop-throughput",
    "ai.fit_radio_maps.": "loop_s on loop-throughput",
    "ai.gpr.": "loop_s on loop-throughput",
    "ai.dqn.": "train_steps_per_s on loop-interference",
    "loop.": "epoch_p50_s on loop-throughput and loop-interference",
    "trace.": "none: the cost of tracing itself",
}


def target_of(name: str) -> str:
    return TARGETS[max((p for p in TARGETS if name.startswith(p)), key=len)]


PER_LAYER_NAMES = tuple(layer_metrics(Tracer())) + ("trace.overhead_s",
                                                     "trace.overhead_pct")
