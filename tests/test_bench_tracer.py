"""The benchmark's traced mode must still install against this ranopt.

``bench/tracing.py`` imports every module it wraps and does not catch a
missing module, so deleting one crashes every traced run; a missing
attribute is only skipped and listed.  This reads the tracer and leaves
``bench/`` as it is.
"""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
# wrapped attributes that are deleted: the surrogate search's three;
# Warehouse.append, whose warehouse.append.* metrics read 0 once the
# pipeline loaded through Warehouse.load, now the only write path; and the
# radio kernel's name in the loop runner, whose one caller, the MIMO
# coupling estimate, is gone: the MIMO search calls the kernel through
# ranopt.ai.throughput, which the tracer wraps; the one-candidate
# throughput wrapper, whose callers were all tests (the system then scored
# candidates through build_surrogate_dataset), so its
# ai.predict_throughput.calls read 0 before it went; and
# build_surrogate_dataset, the grid builder and scorer, since the throughput
# and MIMO use cases enumerate their own grid as candidates and score it
# through predicted_throughputs: ai.surrogate_grid.* reads 0, and the
# scoring time falls into loop.optimize.s; and the one-cell DQN agent,
# whose learn dqn_train has not called since the agents train as one
# stacked DqnAgents, so ai.dqn.learn.* read 0 before it went
GONE = {"ranopt.ai.throughput.fit_surrogate",
        "ranopt.ai.throughput.optimize_config",
        "ranopt.ai.surrogate._NormalizedSurrogate.predict",
        "ranopt.warehouse.store.Warehouse.append",
        "ranopt.loop.runner.best_beam_rsrp_dbm",
        "ranopt.ai.throughput.predict_network_throughput",
        "ranopt.ai.throughput.build_surrogate_dataset",
        "ranopt.ai.dqn.DqnAgent.learn"}


def test_tracer_installs_and_restores_every_wrap():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert set(tracer.missing) <= GONE
    finally:
        assert tracer.uninstall() == []
