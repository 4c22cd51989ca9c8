from .types import (Beam, CellConfig, HotspotCluster, KpiRecord,
                    MeasurementRecord, Scenario,
                    PATTERN_CODEBOOK, NO_SIGNAL_DBM, RATE_CAP_MBPS)
from .radio import (antenna_gain_dbi, best_beam_rsrp_dbm, compute_sinr_db,
                    dbm_to_mw, noise_dbm, path_loss_db, ShadowField,
                    BORESIGHT_GAIN_DBI)
from .scheduler import collision_ratio
from .energy import aau_power_w, energy_step
from .engine import (apply_command, emit_window_csvs, hour_bucket,
                     load_scenario, step)

__all__ = [n for n in dir() if not n.startswith("_")]
