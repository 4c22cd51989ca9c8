from .pipeline import (AcquisitionPipeline, KPI_HEADER, MEASUREMENT_HEADER,
                       MEASUREMENT_HEADER_KBPS)
from .records import (RawRecord, RejectCode, RejectReason, SOURCE_TAGS,
                      hash_user_id)
from .sources import StreamServer, watch_directory

__all__ = [n for n in dir() if not n.startswith("_")]
