"""The CSV format of trace and results files.

Written as UTF-8 with LF line endings: one ``#`` header line, then one row
per line and a trailing newline.  Floats are written in shortest round-trip
form, so rereading a file reproduces the exact binary values.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import TraceFormatError

# Bytes of one write of ``write_csv`` (about) and of the trace reader's buffer.
IO_BLOCK = 1 << 16


def fmt_float(x: float) -> str:
    """Shortest decimal form that round-trips to the same binary value."""
    return repr(float(x))


def write_csv(path, header: str, rows: Iterable[str]) -> None:
    """Write the ``header`` line, then each item of ``rows`` and a newline
    (an item may hold several lines).

    The lines are joined and written a block of about ``IO_BLOCK`` at a
    time, so the writer holds one block and the next item at most.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        block, size = [header], len(header) + 1
        for row in rows:
            if size + len(row) >= IO_BLOCK:
                block.append("")
                fh.write("\n".join(block))
                block, size = [], 0
            block.append(row)
            size += len(row) + 1
        block.append("")
        fh.write("\n".join(block))


def decode_line(raw: bytes, line_number: int) -> str:
    """Line ``line_number``, read as bytes, decoded and without its line end."""
    try:
        return raw.decode("utf-8").rstrip("\r\n")
    except UnicodeDecodeError:
        raise TraceFormatError(line_number, "not UTF-8") from None


def parse_dt_header(line: str, line_number: int) -> float:
    if not line.startswith("# dt="):
        raise TraceFormatError(line_number, "missing '# dt=<seconds>' header")
    try:
        dt = float(line[len("# dt=") :])
    except ValueError:
        raise TraceFormatError(line_number, "unparseable dt header") from None
    if not (math.isfinite(dt) and dt > 0.0):
        raise TraceFormatError(line_number, "dt must be positive and finite")
    return dt
