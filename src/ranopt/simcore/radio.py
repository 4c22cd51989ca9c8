"""Propagation, antenna gain, RSRP and SINR models.

All functions accept scalars or numpy arrays and are deterministic.  One
RSRP kernel serves one beam or all of a cell's beams at once.
"""
from __future__ import annotations

import numpy as np

from .types import (Beam, CellConfig, N_RE, NO_SIGNAL_DBM, NOISE_FIGURE_DB,
                    RSRP_MAX_DBM, RSRP_MIN_DBM, SINR_MAX_DB, SINR_MIN_DB)

ELEMENT_GAIN_DBI = 8.0
N_ELEMENTS = 96  # 12x8 planar array
BORESIGHT_GAIN_DBI = ELEMENT_GAIN_DBI + 10.0 * np.log10(N_ELEMENTS)
GAIN_FLOOR_DBI = BORESIGHT_GAIN_DBI - 30.0


def path_loss_db(distance_m, carrier_ghz: float):
    """Free-space-like loss; distances below 1 m clamp to 1 m."""
    d = np.maximum(np.asarray(distance_m, dtype=float), 1.0)
    return 32.4 + 21.0 * np.log10(d) + 20.0 * np.log10(carrier_ghz)


def wrap_deg(angle):
    """Wrap angle difference into [-180, 180)."""
    return (np.asarray(angle, dtype=float) + 180.0) % 360.0 - 180.0


def antenna_gain_dbi(cell: CellConfig, beam: Beam, az_deg, el_deg):
    """Gain toward (az, el); el is measured downward from the horizon.

    The beam points at cell azimuth + beam azimuth offset, and at
    cell tilt + beam elevation offset.
    """
    daz = wrap_deg(np.asarray(az_deg, dtype=float)
                   - (cell.azimuth_deg + beam.az_offset_deg))
    delv = np.asarray(el_deg, dtype=float) - (cell.tilt_deg + beam.el_offset_deg)
    g = (BORESIGHT_GAIN_DBI
         - 12.0 * (daz / beam.az_bw_deg) ** 2
         - 12.0 * (delv / beam.el_bw_deg) ** 2)
    return np.maximum(g, GAIN_FLOOR_DBI)


class ShadowField:
    """Deterministic spatially correlated log-normal shadowing per cell.

    A fixed sum of random plane waves seeded from (scenario seed, cell id)
    so repeated measurement of one point is always consistent.
    """

    N_WAVES = 24

    def __init__(self, seed: int, cell_id: str, sigma_db: float, corr_m: float):
        self.sigma_db = float(sigma_db)
        rng = np.random.default_rng(
            np.random.SeedSequence([seed & 0xFFFFFFFF, _stable_id(cell_id)]))
        wavelengths = rng.uniform(0.8 * corr_m, 3.2 * corr_m, self.N_WAVES)
        theta = rng.uniform(0.0, 2.0 * np.pi, self.N_WAVES)
        k = 2.0 * np.pi / wavelengths
        self._kx = k * np.cos(theta)
        self._ky = k * np.sin(theta)
        self._phase = rng.uniform(0.0, 2.0 * np.pi, self.N_WAVES)

    def at(self, pos_xy):
        """Shadowing in dB at (n,2) positions (or a single (2,) point)."""
        p = np.atleast_2d(np.asarray(pos_xy, dtype=float))
        phases = p[:, 0:1] * self._kx + p[:, 1:2] * self._ky + self._phase
        vals = np.sqrt(2.0 / self.N_WAVES) * np.cos(phases).sum(axis=1)
        out = self.sigma_db * vals
        return out if np.ndim(pos_xy) > 1 else float(out[0])


def _stable_id(s: str) -> int:
    h = 2166136261
    for ch in s.encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


def user_geometry(cell: CellConfig, pos_xy):
    """(distance_3d_m, azimuth_deg, downward_elevation_deg) from site to users."""
    p = np.atleast_2d(np.asarray(pos_xy, dtype=float))
    dx = p[:, 0] - cell.site_pos[0]
    dy = p[:, 1] - cell.site_pos[1]
    horiz = np.hypot(dx, dy)
    height = cell.site_pos[2]
    dist = np.sqrt(horiz ** 2 + height ** 2)
    az = np.degrees(np.arctan2(dy, dx)) % 360.0
    el = np.degrees(np.arctan2(height, np.maximum(horiz, 1e-9)))
    return dist, az, el


def compute_rsrp_dbm(cell: CellConfig, beam: Beam, pos_xy, carrier_ghz: float,
                     shadow: ShadowField | None = None):
    """Per-RE received power of one SSB beam at the given positions."""
    rsrp = _rsrp_dbm(cell, [beam], pos_xy, carrier_ghz, shadow)[0]
    return rsrp if np.ndim(pos_xy) > 1 else float(rsrp[0])


def best_beam_rsrp_dbm(cell: CellConfig, pos_xy, carrier_ghz: float,
                       shadow: ShadowField | None = None):
    """(best rsrp dBm, best beam index) over the cell's 8 SSB beams."""
    per_beam = _rsrp_dbm(cell, cell.beams, pos_xy, carrier_ghz, shadow)
    best, idx = per_beam.max(axis=0), per_beam.argmax(axis=0)
    return (best, idx) if np.ndim(pos_xy) > 1 else (best[0], idx[0])


def _rsrp_dbm(cell: CellConfig, beams, pos_xy, carrier_ghz: float,
              shadow: ShadowField | None):
    """(beams, users) RSRP; geometry, loss and shadowing computed once."""
    p = np.atleast_2d(np.asarray(pos_xy, dtype=float))
    if not cell.carrier_on:
        return np.full((len(beams), p.shape[0]), NO_SIGNAL_DBM)
    dist, az, el = user_geometry(cell, p)
    # one Beam of (beams, 1) columns broadcasts the gain over every beam
    stacked = Beam(-1, *np.array([[b.az_offset_deg, b.el_offset_deg,
                                   b.az_bw_deg, b.el_bw_deg]
                                  for b in beams]).T[:, :, None])
    gain = antenna_gain_dbi(cell, stacked, az, el)
    tx_re = cell.tx_power_dbm - 10.0 * np.log10(N_RE)
    rsrp = (tx_re + gain) - path_loss_db(dist, carrier_ghz)
    if shadow is not None:
        rsrp = rsrp + shadow.at(p)
    return np.clip(rsrp, RSRP_MIN_DBM, RSRP_MAX_DBM)


def noise_dbm(bandwidth_mhz: float) -> float:
    """Thermal noise over the full carrier bandwidth plus receiver NF."""
    return -174.0 + 10.0 * np.log10(bandwidth_mhz * 1e6) + NOISE_FIGURE_DB


def dbm_to_mw(dbm):
    return 10.0 ** (np.asarray(dbm, dtype=float) / 10.0)


def compute_sinr_db(serving_rsrp_mw, interferer_rsrp_mw_list, noise_mw):
    """10*log10(S / (sum I + N)), clamped to the reporting range."""
    s = np.asarray(serving_rsrp_mw, dtype=float)
    i_tot = np.sum([np.asarray(x, dtype=float) for x in interferer_rsrp_mw_list],
                   axis=0) if len(interferer_rsrp_mw_list) else 0.0
    sinr = np.clip(10.0 * np.log10(s / (i_tot + noise_mw)), SINR_MIN_DB,
                   SINR_MAX_DB)
    return float(sinr) if np.ndim(sinr) == 0 else sinr
