"""Mach-Zehnder polarization bench.

Source 1 enters right-circular, source 2 left-circular (the quarter-wave
plates are baked into this assignment).  The recombining beam splitter
contributes 1/sqrt(2) per port and a sign epsilon (+1 at detector 3, -1 at
detector 4); each detector sits behind a linear polariser.  ``amplitudes``
states the whole bench as one 2x2 table, ``A[a, j]`` the amplitude of
source ``j`` at detector ``a``:

    E_a = sum_j A[a, j] E_j,   A[a, 1] = e^{i phi_a} / 2,
    A[a, 2] = eps_a sqrt(balance) e^{-i phi_a} e^{i phi_d delta_a3} / 2

The dynamical phase ``phi_d`` rides the S2 -> D3 path only, so the loop
S1 -> D3, S2 -> D3, S2 -> D4, S1 -> D4 closed by the cross correlation
carries it and no self correlation sees it.  ``propagate``,
``oracle.predict_g2`` and ``oracle.term_audit`` all read this table.

Detector traces, like source traces, are stored as runs of equal samples
and built only from them, as ``DetectorTraces(dt, n, starts, values)``:
``propagate`` weights each source's field by its amplitudes once per run
of that source, then sums and squares the weighted fields once per run of
the union of both sources' runs, the CSV writer formats each run's line
once and writes it repeated in blocks of about ``csvutil.IO_BLOCK``
(64 KiB), the reader counts each run's equal lines in C and parses them
once, the estimators sum per segment of runs, and the per-sample
``i3``/``i4`` are built only when they are read.
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
        # A NaN carries through min and max and fails the finite test first.
        lo, hi = values.min(), values.max()
        if not (-math.inf < lo and hi < math.inf):
            raise ValueError("intensities must be finite")
        if lo < 0.0:
            raise ValueError("intensities must be nonnegative")
        return values

    @cached_property
    def i3(self) -> np.ndarray:
        return self._expand(self.values[:, 0])

    @cached_property
    def i4(self) -> np.ndarray:
        return self._expand(self.values[:, 1])


def amplitudes(config: BenchConfig) -> np.ndarray:
    """The bench as a 2x2 complex table: ``A[a, j]`` is the amplitude of
    source ``j + 1`` at detector ``a + 3``, so that E_a = sum_j A[a, j] E_j.

    Each entry is the beam-splitter port factor 1/sqrt(2) times the overlap
    <phi_a|R> = e^{i phi_a}/sqrt(2) or <phi_a|L> = e^{-i phi_a}/sqrt(2).
    Source 2 also carries eps_a and sqrt(balance), and at detector 3 only
    the dynamical phase e^{i phi_d}.
    """
    table = np.empty((2, 2), dtype=complex)
    for row, (phi_a, eps_a) in enumerate(((config.phi3, EPSILON_3), (config.phi4, EPSILON_4))):
        table[row] = 0.5 * np.exp(1j * phi_a), 0.5 * eps_a * math.sqrt(config.balance) * np.exp(-1j * phi_a)
    table[0, 1] *= np.exp(1j * config.phi_d)
    return table


def propagate(
    e1: FieldTrace,
    e2: FieldTrace,
    config: BenchConfig,
) -> DetectorTraces:
    """Push two source traces through the bench of ``amplitudes(config)``.

    The intensities are computed once per run of the union of both traces'
    runs, over which neither input field changes, bitwise equal to
    computing them sample by sample.  Each product ``E_j A[a, j]`` is formed
    once per run of source ``j`` and gathered to the union's runs, so no
    gathered copy of a source field is held.
    """
    if e1.dt != e2.dt:
        raise IncompatibleTracesError(f"dt mismatch: {e1.dt!r} vs {e2.dt!r}")
    if e1.n != e2.n:
        raise IncompatibleTracesError(f"length mismatch: {e1.n} vs {e2.n}")
    starts, (run1, run2) = merge_starts(e1.starts, e2.starts)
    values = np.empty((len(starts), 2))
    for col, (a1, a2) in enumerate(amplitudes(config)):
        amp = (e1.values * a1)[run1]
        amp += (e2.values * a2)[run2]
        intensity = values[:, col]
        np.square(amp.real, out=intensity)
        intensity += np.square(amp.imag, out=amp.imag)
    return DetectorTraces(e1.dt, e1.n, starts, values)


def mean_intensity(traces: DetectorTraces) -> tuple[float, float]:
    """Time-averaged intensities (<I3>, <I4>) at detectors 3 and 4, each summed
    run by run in units of 2**e > n (folded into the counts), so that the sum
    stays finite."""
    _, e = math.frexp(traces.n)
    weights = np.ldexp(traces.counts, -e)
    return tuple(math.ldexp(float((weights * column).sum() / traces.n), e) for column in traces.values.T)


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
