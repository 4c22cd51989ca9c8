"""ranopt benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the checkout's ``src/`` for about S seconds and
prints, as its last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it records the environment and the sample counts.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads: with the pipeline worker
# of telemetry-day that makes at most two threads busy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_run"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# a run that has not finished by then is reported as hung
HANG_TIMEOUT_S = 170.0
# two untraced passes of the same seed make a replay pair
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "epoch_p50_s": "s",
    "loop_s": "s",
    "tput_gain_pct": "%",
    "train_steps_per_s": "1/s",
    "sim_window_p50_s": "s",
    "ingest_rec_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(passes, setup_samples) -> dict:
    """End-to-end metrics over every untraced pass of a run."""
    def rate(p):
        # DQN environment steps when the workload trains; otherwise the
        # windows its driving loop advanced
        return (p.train_steps / p.train_s if p.train_steps
                else p.windows / p.loop_s)

    queries = [q for p in passes for q in p.query_ms]
    values = {
        "setup_s": statistics.median(setup_samples),
        "epoch_p50_s": statistics.median(
            [e for p in passes for e in p.epoch_s]),
        "loop_s": statistics.median([p.loop_s for p in passes]),
        "tput_gain_pct": statistics.median(
            [100.0 * p.tput_ratio for p in passes]),
        "train_steps_per_s": statistics.median([rate(p) for p in passes]),
        "sim_window_p50_s": statistics.median(
            [s for p in passes for s in p.sim_window_s]),
        "ingest_rec_per_s": statistics.median(
            [p.ingest_lines / p.ingest_s for p in passes]),
        "query_p50_ms": _percentile(queries, 50),
        "query_p90_ms": _percentile(queries, 90),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def environment(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _blas_threads(numpy):
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def setup_probe(args) -> None:
    """Time one set-up in this fresh interpreter: imports included."""
    start = time.perf_counter()
    from workloads import WORKLOADS
    WORKLOADS[args.workload].setup(args.seed, Path(args.probe_dir))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(args, run_dir: Path) -> list[float]:
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = run_dir / f"probe-{i}"
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--probe-dir", str(probe_dir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if out.returncode:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])
                       ["setup_s"])
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


def remove_run_dir(run_dir: Path) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        RUN_ROOT.rmdir()
    except OSError:  # another run still uses it
        pass


class Run:
    """Counts and state the watchdog needs to report a hang."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.tracer = None
        self.phase = None
        self.done = threading.Event()

    def watch(self, started: float, run_dir: Path) -> None:
        if self.done.wait(HANG_TIMEOUT_S - (time.perf_counter() - started)):
            return
        span = (self.tracer.open_span() if self.tracer else None) \
            or (self.phase.current if self.phase else "setup")
        print(json.dumps({"hang": {"open_span": span,
                                   "after_s": HANG_TIMEOUT_S}}))
        print(json.dumps({"correct": False,
                          "attempted": self.attempted + 1,
                          "failed": len(self.errors) + 1, "metrics": {}}),
              flush=True)
        remove_run_dir(run_dir)
        os._exit(3)


def timed_pass(workload, args, pass_dir: Path, tracer, phase):
    start = time.perf_counter()
    result = workload.run_pass(args.seed, pass_dir, tracer, phase)
    wall = time.perf_counter() - start
    shutil.rmtree(pass_dir)
    return result, wall


def run_passes(args, run: Run, run_dir: Path):
    """Untraced passes (paired with traced ones under --trace 1)."""
    from tracing import NullTracer, Tracer, layer_metrics
    from workloads import WORKLOADS, Phase
    workload = WORKLOADS[args.workload]
    run.phase = Phase()
    passes, layers, walls, overheads = [], [], [], []
    reference = None
    begin = time.perf_counter()
    while True:
        i = len(passes)
        result, wall = timed_pass(workload, args, run_dir / f"pass-{i}",
                                  NullTracer(), run.phase)
        passes.append(result)
        walls.append(wall)
        run.attempted += result.attempted + 1
        run.errors += result.errors
        if reference is None:
            reference = result.outputs
        elif result.outputs != reference:
            run.errors.append(f"replay: pass {i} outputs differ from pass 0")
        if args.trace:
            tracer = run.tracer = Tracer()
            tracer.install()
            try:
                traced, traced_wall = timed_pass(
                    workload, args, run_dir / f"traced-{i}", tracer,
                    run.phase)
            finally:
                left = tracer.uninstall()
                run.tracer = None
            run.attempted += traced.attempted + 2
            run.errors += traced.errors
            if left:
                run.errors.append(f"trace: not restored: {left}")
            if tracer.missing:
                print(json.dumps({"trace_missing": tracer.missing}))
            if traced.outputs != result.outputs:
                run.errors.append(f"trace: traced pass {i} outputs differ "
                                  "from the untraced pass")
            layers.append(layer_metrics(tracer))
            overheads.append(traced_wall - wall)
        if run.errors:
            break
        elapsed = time.perf_counter() - begin
        enough = len(passes) >= (1 if args.trace else MIN_PASSES)
        if enough and elapsed * (len(passes) + 1) / len(passes) \
                > args.seconds:
            break
    return passes, walls, layers, overheads


def per_layer(layers, walls, overheads) -> dict:
    from tracing import PER_LAYER_NAMES, unit_of
    values = {name: statistics.median([m[name] for m in layers])
              for name in layers[0]}
    values["trace.overhead_s"] = statistics.median(overheads)
    values["trace.overhead_pct"] = (100.0 * values["trace.overhead_s"]
                                    / statistics.median(walls))
    return {name: {"value": values[name], "unit": unit_of(name)}
            for name in PER_LAYER_NAMES}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["loop-throughput", "telemetry-day",
                            "loop-interference"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    if not (SRC / "ranopt" / "__init__.py").is_file():
        print(f"error: no ranopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0

    started = time.perf_counter()
    run_dir = RUN_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-" \
                         f"{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    # anything that falls back to a temp directory lands in the run dir
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    run = Run()
    setup_samples, passes, env = [], [], {}
    threading.Thread(target=run.watch, args=(started, run_dir),
                     daemon=True).start()
    try:
        setup_samples = measure_setup(args, run_dir)
        import ranopt
        if Path(ranopt.__file__).resolve().parent != SRC / "ranopt":
            raise RuntimeError(f"ranopt imported from {ranopt.__file__}")
        env = environment(args)
        passes, walls, layers, overheads = run_passes(args, run, run_dir)
    except Exception:
        traceback.print_exc()
        run.errors.append("exception: "
                          + traceback.format_exc().strip().splitlines()[-1])
    leaked = sorted(p.name for p in tmp.iterdir())
    if leaked:
        run.errors.append(f"temp files left behind: {leaked[:5]}")
    run.done.set()
    remove_run_dir(run_dir)

    metrics = {}
    if passes and not run.errors:
        metrics = (per_layer(layers, walls, overheads) if args.trace
                   else end_to_end(passes, setup_samples))
    info = {"env": env, "passes": len(passes),
            "samples": {
                "setup": len(setup_samples),
                "epochs": sum(len(p.epoch_s) for p in passes),
                "sim_windows": sum(len(p.sim_window_s) for p in passes),
                "ingest_lines": sum(p.ingest_lines for p in passes),
                "queries": sum(len(p.query_ms) for p in passes)},
            "errors": run.errors[:20]}
    if args.trace and metrics:
        from tracing import target_of
        info["moves"] = {name: target_of(name) for name in metrics}
    print(json.dumps(info, sort_keys=True))
    correct = bool(passes) and not run.errors
    print(json.dumps({"correct": correct,
                      "attempted": max(run.attempted, 1),
                      "failed": min(len(run.errors), max(run.attempted, 1)),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
