"""Raw and canonical record types for the ingestion pipeline."""
from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

# Source tags mirror the collected-data inventory; payload schemas beyond
# drive-test and network-management rows are retained as tags only.
SOURCE_TAGS = ("air-interface", "software-acquisition", "core-control",
               "core-user", "drive-test", "network-management", "firewall")


class RejectCode(enum.Enum):
    MISSING_FIELD = "MissingField"
    OUT_OF_RANGE = "OutOfRange"
    INCONSISTENT_IDS = "InconsistentIds"
    UNPARSABLE_VALUE = "UnparsableValue"
    DUPLICATE_SEQ = "DuplicateSeq"


@dataclass(frozen=True)
class RejectReason:
    code: RejectCode
    field: str | None
    raw: str
    line_no: int | None = None


@dataclass
class RawRecord:
    source_tag: str
    seq_no: int
    payload: dict[str, object]  # text (files, socket) or native values (loop)


# Canonical field orders per record kind; the pipeline emits exactly these.
MEASUREMENT_FIELDS = ("t_s", "user_hash", "cell_id", "beam_id", "signal_type",
                      "rsrp_dbm", "sinr_db", "rate_mbps", "pos_x_m", "pos_y_m")
KPI_FIELDS = ("t_s", "cell_id", "window_len_s", "throughput_mbps", "rbur",
              "num_users", "power_w", "collision_ratio")


@dataclass
class CanonicalRecord:
    kind: str  # "measurement" | "kpi"
    source_tag: str
    ingest_time_s: float
    fields: dict[str, object] = field(default_factory=dict)


def hash_user_id(user_id: str, key: bytes) -> str:
    """Keyed 64-bit hash; stable within a run, irreversible de-identification."""
    h = hashlib.blake2b(user_id.encode(), key=key, digest_size=8)
    return "h" + h.hexdigest()
