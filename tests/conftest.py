from types import SimpleNamespace

import pytest

from ranopt.loop.usecases import Energy, Throughput
from ranopt.simcore import CellConfig, HotspotCluster, Scenario

FLAT_PROFILE = [1.0] * 24


def make_cell(cell_id="c1", **kw):
    defaults = dict(site_pos=(0.0, 0.0, 25.0), azimuth_deg=0.0, tilt_deg=6.0,
                    tx_power_dbm=50.0)
    defaults.update(kw)
    return CellConfig(cell_id=cell_id, **defaults)


def make_scenario(cells=None, clusters=None, seed=7, shadow_sigma_db=0.0,
                  profile=None):
    if cells is None:
        cells = [make_cell()]
    if clusters is None:
        clusters = [HotspotCluster(center=(250.0, 0.0), std_m=40.0,
                                   mean_users=12.0)]
    return Scenario(cells=cells, clusters=clusters,
                    traffic_profile=profile or list(FLAT_PROFILE),
                    seed=seed, shadow_sigma_db=shadow_sigma_db)


@pytest.fixture
def single_cell_scenario():
    return make_scenario()


def two_cell_scenario():
    """Two facing cells, one hotspot in front of each: a MIMO network."""
    cells = [make_cell("c1"), make_cell("c2", site_pos=(500.0, 0.0, 25.0),
                                        azimuth_deg=180.0)]
    clusters = [HotspotCluster((200.0, 50.0), 30.0, 6.0),
                HotspotCluster((300.0, -50.0), 30.0, 6.0)]
    return make_scenario(cells=cells, clusters=clusters)


def stub_loop(scenario, use_case="stub", **attrs):
    """What a use case's decision reads of a ClosedLoop at epoch 0 whose
    target is the scenario's first cell; attrs add the rest (warehouse,
    config_log, models)."""
    return SimpleNamespace(
        scenario=scenario, use_case=use_case, epoch=0,
        target_cell=lambda: scenario.cells[0].cell_id,
        cells=lambda: {c.cell_id: c for c in scenario.cells}, **attrs)


def deploy(case, loop, before=None):
    """(fields, score): the fields of the command `case.optimize` deploys
    on loop, and the prediction of the candidate it deployed (None when
    nothing was scored)."""
    seen = []
    predict = case.predict

    def spy(*args):
        seen.append((args[2], predict(*args)))
        return seen[-1][1]

    case.predict = spy  # on this object only
    try:
        fields = case.optimize(loop, before).fields
    finally:
        del case.predict
    if not seen or not seen[0][1]:
        return fields, None
    candidates, scores = seen[0]
    return fields, scores[candidates.index(fields)]


class GridSearch(Throughput):
    """The throughput use case over a given search box."""

    def __init__(self, bounds: dict):
        self.bounds = bounds

    def box(self, cell) -> dict:
        return self.bounds


class FixedForecast(Energy):
    """The energy use case with a given load forecast."""

    def __init__(self, load):
        self.load = load

    def forecast(self, loop, target: str):
        return self.load
