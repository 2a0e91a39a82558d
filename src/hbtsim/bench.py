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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import ne

import numpy as np

from .csvutil import fmt_float as _fmt
from .csvutil import parse_dt_header, write_csv
from .errors import IncompatibleTracesError, TraceFormatError
from .source import FieldTrace

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


@dataclass(frozen=True, eq=False)
class DetectorTraces:
    """Paired nonnegative intensity time series at detectors 3 and 4."""

    dt: float
    i3: np.ndarray
    i4: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")
        i3 = np.asarray(self.i3, dtype=float)
        i4 = np.asarray(self.i4, dtype=float)
        if i3.ndim != 1 or i4.ndim != 1 or len(i3) != len(i4) or len(i3) == 0:
            raise ValueError("i3 and i4 must be nonempty 1-d arrays of equal length")
        if not (np.all(np.isfinite(i3)) and np.all(np.isfinite(i4))):
            raise ValueError("intensities must be finite")
        if np.any(i3 < 0.0) or np.any(i4 < 0.0):
            raise ValueError("intensities must be nonnegative")
        i3, i4 = i3.copy(), i4.copy()
        i3.flags.writeable = False
        i4.flags.writeable = False
        object.__setattr__(self, "i3", i3)
        object.__setattr__(self, "i4", i4)

    def __len__(self) -> int:
        return len(self.i3)

    def series(self, which: int) -> np.ndarray:
        """The intensity series of detector ``which`` (3 or 4)."""
        if which == 3:
            return self.i3
        if which == 4:
            return self.i4
        raise ValueError(f"unknown detector id {which!r}; expected 3 or 4")


def propagate(
    e1: FieldTrace,
    e2: FieldTrace,
    config: BenchConfig,
) -> DetectorTraces:
    """Push two source traces through the bench.

    The intensities are computed once per run of samples over which neither
    input field changes and repeated over the run, bitwise equal to
    computing them sample by sample.  ``config.balance`` scales the source-2
    intensity before the bench so that <I2>/<I1> = balance for
    equal-amplitude inputs.
    """
    if e1.dt != e2.dt:
        raise IncompatibleTracesError(f"dt mismatch: {e1.dt!r} vs {e2.dt!r}")
    if len(e1.samples) != len(e2.samples):
        raise IncompatibleTracesError(
            f"length mismatch: {len(e1.samples)} vs {len(e2.samples)}"
        )
    s1, s2 = e1.samples, e2.samples
    starts = np.flatnonzero(np.concatenate(([True], (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1]))))
    runs = np.diff(starts, append=len(s1))
    f1 = s1[starts]
    f2 = s2[starts] * (math.sqrt(config.balance) * np.exp(1j * config.phi_d))
    intensities = []
    for phi_i, eps_i in ((config.phi3, EPSILON_3), (config.phi4, EPSILON_4)):
        # E_i = (1/sqrt(2)) <phi_i|v> |phi_i> with v = eps*f2|L> + f1|R>;
        # the R/L components of |phi_i> are e^{-+i phi_i}/sqrt(2).
        amp = 0.5 * (eps_i * f2 * np.exp(-1j * phi_i) + f1 * np.exp(1j * phi_i))
        intensities.append(np.repeat(amp.real ** 2 + amp.imag ** 2, runs))
    return DetectorTraces(dt=e1.dt, i3=intensities[0], i4=intensities[1])


def mean_intensity(traces: DetectorTraces, which: int) -> float:
    """Time-averaged intensity at detector 3 or 4."""
    return float(np.mean(traces.series(which)))


# --- CSV export/import: "# dt=<seconds>" header, then "i3,i4" rows ---------


def save_detector_traces(traces: DetectorTraces, path) -> None:
    """Write ``traces`` as a ``# dt=`` header and one ``i3,i4`` row per sample.

    The fields are piecewise constant, so the rows come in runs of equal
    ``(i3, i4)`` pairs.  Each run's line is formatted once and repeated
    over the run.  Runs are split where the bit pattern changes, since
    ``-0.0 == 0.0`` but their reprs differ, so the bytes are those of
    formatting every row on its own.
    """
    b3, b4 = traces.i3.view(np.int64), traces.i4.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], (b3[1:] != b3[:-1]) | (b4[1:] != b4[:-1]))))
    runs = np.diff(starts, append=len(traces)).tolist()
    lines = (f"{_fmt(a)},{_fmt(b)}" for a, b in zip(traces.i3[starts].tolist(), traces.i4[starts].tolist()))
    write_csv(path, f"# dt={_fmt(traces.dt)}", chain.from_iterable(map(repeat, lines, runs)))


def load_detector_traces(path) -> DetectorTraces:
    """Read a file written by ``save_detector_traces``.

    Blank lines and ``#`` lines after the header are skipped.  A data line
    is parsed only where it differs from the line before it, and a pair
    equal to the previous data line's is reused, so the work is per run of
    equal lines; the traces are built by repeating each pair over its
    count.  A malformed or out-of-range value is reported at the first line
    where it appears.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TraceFormatError(1, "empty file")
    dt = parse_dt_header(lines[0], 1)
    # Index of each line that differs from the line before it: lines in
    # [starts[k], starts[k + 1]) are all equal.
    starts = [*compress(count(1), map(ne, islice(lines, 1, None), lines)), len(lines)]
    pairs, counts = [], []
    inf = math.inf
    prev, pair = None, None
    for i, end in zip(starts, starts[1:]):
        line = lines[i]
        if not line or line.startswith("#"):
            continue
        if line != prev:
            cells = line.split(",")
            if len(cells) != 2:
                raise TraceFormatError(i + 1, f"expected 'i3,i4', got {line!r}")
            try:
                pair = float(cells[0]), float(cells[1])
            except ValueError:
                raise TraceFormatError(i + 1, f"unparseable number in {line!r}") from None
            if not (0.0 <= pair[0] < inf and 0.0 <= pair[1] < inf):
                raise TraceFormatError(i + 1, f"intensities must be finite and >= 0, got {line!r}")
            prev = line
        pairs.append(pair)
        counts.append(end - i)
    if not pairs:
        raise TraceFormatError(len(lines), "no samples")
    i3, i4 = np.repeat(np.array(pairs), counts, axis=0).T
    return DetectorTraces(dt=dt, i3=i3, i4=i4)
