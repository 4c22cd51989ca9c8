"""Stream bindings: newline-delimited CSV over TCP, and a watched directory.

Socket wire format: the first row is a header whose leading columns are
source_tag and seq_no, the remaining columns one of the known payload
schemas; every following row is one record, parsed by the pipeline's row
parser and answered with one ack line (``accepted``, ``duplicate``,
``rejected bad-line`` or ``rejected bad-seq``).  A row that is not UTF-8
text is a bad line.  Each connection has its own handler thread, which
ingests each row as a batch of one before it sends the row's ack.
"""
from __future__ import annotations

import io
import socketserver
from pathlib import Path

from ..errors import FileRejected, NotFoundError
from .pipeline import AcquisitionPipeline, parse_header, read_rows


def _is_utf8(cells) -> bool:
    """False for cells holding bytes that were not UTF-8 (read as lone
    surrogates with the surrogateescape error handler)."""
    try:
        "".join(cells).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class _StreamHandler(socketserver.StreamRequestHandler):
    def handle(self):
        pipeline: AcquisitionPipeline = self.server.pipeline  # type: ignore
        rows = read_rows(io.TextIOWrapper(self.rfile, encoding="utf-8",
                                          errors="surrogateescape",
                                          newline=""))
        header = parse_header(next(rows, (None, ()))[1])
        if header is None or not header.enveloped:
            self.wfile.write(b"rejected bad-header\n")
            return
        for line_no, cells in rows:
            if not _is_utf8(cells):
                ack = "rejected bad-line"
            else:  # a batch of one: the row meets its fate before its ack
                accepted, rejects = pipeline.ingest_rows(
                    header, [(line_no, cells)])
                if rejects:
                    ack = ("rejected bad-seq" if rejects[0].field == "seq_no"
                           else "rejected bad-line")
                else:
                    ack = "accepted" if accepted else "duplicate"
            self.wfile.write(ack.encode() + b"\n")


class StreamServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], pipeline: AcquisitionPipeline):
        super().__init__(address, _StreamHandler)
        self.pipeline = pipeline


def watch_directory(directory, pipeline: AcquisitionPipeline) -> int:
    """Ingest every CSV/TXT file of a directory, in name order; a file
    refused as a whole is recorded with `reject_file`.  NotFoundError if
    the directory does not exist or is not a directory."""
    if not Path(directory).is_dir():
        raise NotFoundError(f"no directory {str(directory)!r}")
    processed = 0
    for path in sorted(Path(directory).glob("*")):
        if path.suffix.lower() not in (".csv", ".txt"):
            continue
        try:
            pipeline.ingest_batch(path)
        except FileRejected as e:
            pipeline.reject_file(path, str(e))
        processed += 1
    return processed
