"""Core domain types of the radio environment."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..errors import ValidationError

# Reporting bounds shared with the acquisition validators.
RSRP_MIN_DBM = -156.0
RSRP_MAX_DBM = -31.0
SINR_MIN_DB = -23.0
SINR_MAX_DB = 40.0
RATE_CAP_MBPS = 1180.0  # downlink peak rate per user
NO_SIGNAL_DBM = -200.0  # carrier off / below reporting floor

BANDWIDTH_MHZ = 100.0
CARRIER_GHZ = 3.55
N_RE = 3276  # 273 PRB x 12 subcarriers at 100 MHz
NOISE_FIGURE_DB = 7.0

ALLOWED_CIO_DB = (-3.0, 0.0, 3.0)
ALLOWED_CHANNEL_FRACTIONS = (1.0, 0.5)
N_PATTERNS = 4


@dataclass(frozen=True)
class Beam:
    beam_id: int
    az_offset_deg: float
    el_offset_deg: float
    az_bw_deg: float
    el_bw_deg: float


def _make_pattern(az_bw: float, el_bw: float, extra_tilt: float = 0.0) -> tuple[Beam, ...]:
    az_offsets = (-22.5, -7.5, 7.5, 22.5)
    el_offsets = (0.0, 6.0)
    beams = []
    for i, el in enumerate(el_offsets):
        for j, az in enumerate(az_offsets):
            beams.append(Beam(beam_id=i * 4 + j,
                              az_offset_deg=az,
                              el_offset_deg=el + extra_tilt,
                              az_bw_deg=az_bw,
                              el_bw_deg=el_bw))
    return tuple(beams)


# Broadcast-pattern codebook: default, narrow, wide, downtilted.
DEFAULT_AZ_BW = 8.5
DEFAULT_EL_BW = 12.75
PATTERN_CODEBOOK: tuple[tuple[Beam, ...], ...] = (
    _make_pattern(DEFAULT_AZ_BW, DEFAULT_EL_BW),
    _make_pattern(DEFAULT_AZ_BW * 0.7, DEFAULT_EL_BW * 0.7),
    _make_pattern(DEFAULT_AZ_BW * 1.4, DEFAULT_EL_BW * 1.4),
    _make_pattern(DEFAULT_AZ_BW, DEFAULT_EL_BW, extra_tilt=4.0),
)

# Fields a command may touch, with their validators.
ACTUATABLE_FIELDS = ("azimuth_deg", "tilt_deg", "tx_power_dbm", "carrier_on",
                     "channel_fraction", "symbol_fraction", "cio_db", "pattern_id")


@dataclass
class CellConfig:
    cell_id: str
    site_pos: tuple[float, float, float]
    azimuth_deg: float = 0.0
    tilt_deg: float = 6.0
    tx_power_dbm: float = 50.0
    carrier_on: bool = True
    channel_fraction: float = 1.0
    symbol_fraction: float = 1.0
    cio_db: float = 0.0
    pattern_id: int = 0

    def validate(self) -> None:
        """Raise ValidationError naming the first out-of-range field."""
        if not (0.0 <= self.azimuth_deg < 360.0):
            raise ValidationError(f"azimuth_deg={self.azimuth_deg} outside [0,360)")
        if not (0.0 <= self.tilt_deg <= 15.0):
            raise ValidationError(f"tilt_deg={self.tilt_deg} outside [0,15]")
        if not (30.0 <= self.tx_power_dbm <= 53.0):
            raise ValidationError(f"tx_power_dbm={self.tx_power_dbm} outside [30,53]")
        if not isinstance(self.carrier_on, bool):
            raise ValidationError(f"carrier_on={self.carrier_on!r} not boolean")
        if self.channel_fraction not in ALLOWED_CHANNEL_FRACTIONS:
            raise ValidationError(
                f"channel_fraction={self.channel_fraction} not in {ALLOWED_CHANNEL_FRACTIONS}")
        if not (0.10 <= self.symbol_fraction <= 1.0):
            raise ValidationError(f"symbol_fraction={self.symbol_fraction} outside [0.10,1.0]")
        if self.cio_db not in ALLOWED_CIO_DB:
            raise ValidationError(f"cio_db={self.cio_db} not in {ALLOWED_CIO_DB}")
        if not (0 <= self.pattern_id < N_PATTERNS):
            raise ValidationError(f"pattern_id={self.pattern_id} outside [0,{N_PATTERNS})")

    @property
    def beams(self) -> tuple[Beam, ...]:
        return PATTERN_CODEBOOK[self.pattern_id]

    def replace(self, **fields) -> "CellConfig":
        return dataclasses.replace(self, **fields)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["site_pos"] = list(self.site_pos)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CellConfig":
        d = dict(d)
        d["site_pos"] = tuple(float(v) for v in d["site_pos"])
        return cls(**d)


@dataclass
class UserState:
    user_id: str
    pos: tuple[float, float]
    demand_mbps: float


@dataclass
class MeasurementRecord:
    timestamp_s: float
    user_id: str
    cell_id: str
    beam_id: int
    signal_type: str  # always "SSB"
    rsrp_dbm: float
    sinr_db: float
    rate_mbps: float
    pos: tuple[float, float]

    CSV_HEADER = ("timestamp_s", "user_id", "cell_id", "beam_id", "signal_type",
                  "rsrp_dbm", "sinr_db", "rate_mbps", "pos_x_m", "pos_y_m")

    def csv_row(self) -> tuple:
        return (self.timestamp_s, self.user_id, self.cell_id, self.beam_id,
                self.signal_type, self.rsrp_dbm, self.sinr_db, self.rate_mbps,
                self.pos[0], self.pos[1])


@dataclass
class KpiRecord:
    cell_id: str
    window_start_s: float
    window_len_s: float
    throughput_mbps: float
    rbur: float
    num_users: int
    power_w: float
    collision_ratio: float

    CSV_HEADER = ("cell_id", "window_start_s", "window_len_s", "throughput_mbps",
                  "rbur", "num_users", "power_w", "collision_ratio")

    def csv_row(self) -> tuple:
        return (self.cell_id, self.window_start_s, self.window_len_s,
                self.throughput_mbps, self.rbur, self.num_users,
                self.power_w, self.collision_ratio)


@dataclass
class HotspotCluster:
    center: tuple[float, float]
    std_m: float
    mean_users: float
    demand_mbps: float = 50.0


@dataclass
class Scenario:
    cells: list[CellConfig]
    clusters: list[HotspotCluster]
    traffic_profile: list[float]  # 24 diurnal demand multipliers
    seed: int = 0
    bandwidth_mhz: float = BANDWIDTH_MHZ
    carrier_ghz: float = CARRIER_GHZ
    shadow_sigma_db: float = 4.0
    shadow_corr_m: float = 50.0

    def __post_init__(self):
        if len(self.traffic_profile) != 24:
            raise ValidationError("traffic_profile must have 24 buckets")
        for c in self.cells:
            c.validate()

    def cell(self, cell_id: str) -> CellConfig:
        for c in self.cells:
            if c.cell_id == cell_id:
                return c
        from ..errors import NotFoundError
        raise NotFoundError(f"unknown cell_id {cell_id!r}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "bandwidth_mhz": self.bandwidth_mhz,
            "carrier_ghz": self.carrier_ghz,
            "shadow_sigma_db": self.shadow_sigma_db,
            "shadow_corr_m": self.shadow_corr_m,
            "cells": [c.to_dict() for c in self.cells],
            "clusters": [
                {"center": list(cl.center), "std_m": cl.std_m,
                 "mean_users": cl.mean_users, "demand_mbps": cl.demand_mbps}
                for cl in self.clusters
            ],
            "traffic_profile": list(self.traffic_profile),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        return cls(
            cells=[CellConfig.from_dict(c) for c in d["cells"]],
            clusters=[HotspotCluster(center=tuple(cl["center"]), std_m=cl["std_m"],
                                     mean_users=cl["mean_users"],
                                     demand_mbps=cl.get("demand_mbps", 50.0))
                      for cl in d["clusters"]],
            traffic_profile=[float(v) for v in d["traffic_profile"]],
            seed=int(d.get("seed", 0)),
            bandwidth_mhz=float(d.get("bandwidth_mhz", BANDWIDTH_MHZ)),
            carrier_ghz=float(d.get("carrier_ghz", CARRIER_GHZ)),
            shadow_sigma_db=float(d.get("shadow_sigma_db", 4.0)),
            shadow_corr_m=float(d.get("shadow_corr_m", 50.0)),
        )
