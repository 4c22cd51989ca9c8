import pytest

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
