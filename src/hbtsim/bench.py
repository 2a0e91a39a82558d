"""Mach-Zehnder polarization bench.

Source 1 enters right-circular, source 2 left-circular (the quarter-wave
plates are baked into this assignment).  The recombining beam splitter
contributes 1/sqrt(2) per port and a sign epsilon (+1 at detector 3, -1 at
detector 4); each detector sits behind a linear polariser.  Per sample the
detector field is

    E_i = (1/sqrt(2)) P_i (eps_i P_L E2 u_i2  +  P_R E1 u_i1)

with u_i1 = 1 and u_i2 = e^{i phi_d} (the arm-2 propagation factor carries
the dynamical phase), and the recorded intensity is |E_i|^2 summed over the
two polarization components.

Detector traces, like source traces, are stored as runs of equal samples
and built only from them, as ``DetectorTraces(dt, n, starts, values)``:
``propagate`` evaluates the bench once per run of the union of both
sources' runs, the CSV writer formats each run's line once and writes it
repeated in blocks of about ``csvutil.IO_BLOCK`` (64 KiB), the reader
counts each run's equal lines in C and parses them once, the estimators
sum per segment of runs, and the per-sample ``i3``/``i4`` are built only
when they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby, repeat
from operator import countOf

import numpy as np

from .csvutil import fmt_float as _fmt
from .csvutil import IO_BLOCK, decode_line, parse_dt_header, write_csv
from .errors import IncompatibleTracesError, TraceFormatError
from .source import FieldTrace, RunLengthRecord, merge_starts

EPSILON_3 = 1.0
EPSILON_4 = -1.0


@dataclass(frozen=True)
class BenchConfig:
    """Polariser angles (radians), dynamical phase, source intensity ratio."""

    phi3: float
    phi4: float
    phi_d: float = 0.0
    balance: float = 1.0

    def __post_init__(self):
        for name in ("phi3", "phi4", "phi_d", "balance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.balance > 0.0):
            raise ValueError("balance must be > 0")


class DetectorTraces(RunLengthRecord):
    """Paired nonnegative intensity time series at detectors 3 and 4, stored
    as runs: ``values[r]`` is the pair (I3, I4) held over run ``r``.

    ``i3`` and ``i4`` are built from the runs on first read.  The
    estimators read only the runs and write nothing into the record.
    """

    @staticmethod
    def _checked_values(values, runs: int) -> np.ndarray:
        values = np.array(values, dtype=float)
        if values.shape != (runs, 2):
            raise ValueError("expected one (i3, i4) pair per run")
        if not np.all(np.isfinite(values)):
            raise ValueError("intensities must be finite")
        if np.any(values < 0.0):
            raise ValueError("intensities must be nonnegative")
        return values

    @cached_property
    def i3(self) -> np.ndarray:
        return self._expand(self.values[:, 0])

    @cached_property
    def i4(self) -> np.ndarray:
        return self._expand(self.values[:, 1])


def detector_column(which: int) -> int:
    """The column of ``DetectorTraces.values`` that holds detector ``which``
    (3 or 4)."""
    if which not in (3, 4):
        raise ValueError(f"unknown detector id {which!r}; expected 3 or 4")
    return which - 3


def propagate(
    e1: FieldTrace,
    e2: FieldTrace,
    config: BenchConfig,
) -> DetectorTraces:
    """Push two source traces through the bench.

    The intensities are computed once per run of the union of both traces'
    runs, over which neither input field changes, bitwise equal to
    computing them sample by sample.  ``config.balance`` scales the
    source-2 intensity before the bench so that <I2>/<I1> = balance for
    equal-amplitude inputs.
    """
    if e1.dt != e2.dt:
        raise IncompatibleTracesError(f"dt mismatch: {e1.dt!r} vs {e2.dt!r}")
    if e1.n != e2.n:
        raise IncompatibleTracesError(f"length mismatch: {e1.n} vs {e2.n}")
    starts, (run1, run2) = merge_starts(e1.starts, e2.starts)
    f1 = e1.values[run1]
    f2 = e2.values[run2] * (math.sqrt(config.balance) * np.exp(1j * config.phi_d))
    values = np.empty((len(starts), 2))
    for col, (phi_i, eps_i) in enumerate(((config.phi3, EPSILON_3), (config.phi4, EPSILON_4))):
        # E_i = (1/sqrt(2)) <phi_i|v> |phi_i> with v = eps*f2|L> + f1|R>;
        # the R/L components of |phi_i> are e^{-+i phi_i}/sqrt(2).
        amp = 0.5 * (eps_i * f2 * np.exp(-1j * phi_i) + f1 * np.exp(1j * phi_i))
        values[:, col] = amp.real ** 2 + amp.imag ** 2
    return DetectorTraces(e1.dt, e1.n, starts, values)


def mean_intensity(traces: DetectorTraces, which: int) -> float:
    """Time-averaged intensity at detector 3 or 4, summed run by run."""
    return float(np.sum(traces.counts * traces.values[:, detector_column(which)]) / traces.n)


# --- CSV export/import: "# dt=<seconds>" header, then "i3,i4" rows ---------


def save_detector_traces(traces: DetectorTraces, path) -> None:
    """Write ``traces`` as a ``# dt=`` header and one ``i3,i4`` row per sample.

    Each run's line is formatted once and handed to ``write_csv`` repeated
    over the run, in pieces of at most one ``IO_BLOCK``, so the writer holds
    about one block whatever the run lengths.  The bytes are those of
    formatting every row on its own.
    """
    lines = (f"{_fmt(a)},{_fmt(b)}" for a, b in traces.values.tolist())
    write_csv(path, f"# dt={_fmt(traces.dt)}", chain.from_iterable(map(_repeated, lines, traces.counts.tolist())))


def _repeated(line: str, count: int):
    """``count`` copies of ``line`` joined by newlines, cut into items of at
    most one ``IO_BLOCK`` (``write_csv`` ends each item with a newline)."""
    row = line + "\n"
    per_item = IO_BLOCK // len(row)
    full, rest = divmod(count, per_item)
    if full:
        yield from repeat((row * per_item)[:-1], full)
    if rest:
        yield (row * rest)[:-1]


def load_detector_traces(path) -> DetectorTraces:
    """Read a file written by ``save_detector_traces``, line by line, through
    a buffer of one ``IO_BLOCK``.

    Each group of equal neighbouring lines (CRLF or LF, the last one with
    or without) is counted in C, decoded and parsed once, and becomes one
    run of the traces' stored form.  Blank lines and ``#`` lines after the
    header are skipped.  A line that is not UTF-8, malformed or out of
    range is reported at the first line where it appears.
    """
    with open(path, "rb", buffering=IO_BLOCK) as fh:
        dt = parse_dt_header(decode_line(fh.readline(), 1), 1)
        pairs, row_starts, n, lineno, prev = [], [], 0, 2, None
        for raw, group in groupby(fh):
            rows = countOf(group, raw)
            line = decode_line(raw, lineno)
            if line and not line.startswith("#"):
                if line != prev:
                    try:
                        i3, i4 = map(float, line.split(","))
                    except ValueError:
                        raise TraceFormatError(lineno, f"expected 'i3,i4' numbers, got {line!r}") from None
                    if not (0.0 <= i3 < math.inf and 0.0 <= i4 < math.inf):
                        raise TraceFormatError(lineno, f"intensities must be finite and >= 0, got {line!r}")
                    pairs.append((i3, i4))
                    row_starts.append(n)
                n += rows
            prev = line
            lineno += rows
    if not pairs:
        raise TraceFormatError(lineno - 1, "no samples")
    return DetectorTraces(dt, n, row_starts, pairs)
