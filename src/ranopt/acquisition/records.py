"""Record and reject types for the ingestion pipeline."""
from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

# Source tags mirror the collected-data inventory; payload schemas beyond
# drive-test and network-management rows are retained as tags only.
SOURCE_TAGS = ("air-interface", "software-acquisition", "core-control",
               "core-user", "drive-test", "network-management", "firewall")


class RejectCode(enum.Enum):
    MISSING_FIELD = "MissingField"
    OUT_OF_RANGE = "OutOfRange"
    INCONSISTENT_IDS = "InconsistentIds"
    UNPARSABLE_VALUE = "UnparsableValue"
    DUPLICATE_SEQ = "DuplicateSeq"  # no record's fate: duplicates are counted


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


def hash_user_id(user_id: str, key: bytes) -> str:
    """Keyed 64-bit hash; stable within a run, irreversible de-identification."""
    h = hashlib.blake2b(user_id.encode(), key=key, digest_size=8)
    return "h" + h.hexdigest()
