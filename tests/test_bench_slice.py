"""The benchmark's telemetry slice must still run, and pass its own oracles,
against this ranopt.

``bench/telemetry.py`` checks every drop-file line's fate (kept, rejected
by code, duplicate, bad line) and every dashboard query against a naive
recomputation from the rows it wrote.  This runs a short slice of it as
it is, with the untraced tracer of ``bench/tracing.py``, and leaves
``bench/`` as it is.
"""
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for its dataclasses
    spec.loader.exec_module(module)
    return module


class _Phase:
    def set(self, name: str) -> None:
        pass


def test_telemetry_slice_passes_its_oracles(tmp_path):
    telemetry, tracing = _load("telemetry"), _load("tracing")
    out = telemetry.run_slice(telemetry.hex_network(1), 3, tmp_path, 1,
                              tracing.NullTracer(), _Phase())
    assert out.errors == []
    assert out.ingest_lines > 2000 and len(out.query_ms) == 3 * 9
