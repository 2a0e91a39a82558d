"""Normalized correlation estimators: the field coherence g1 of a source and
the intensity correlations g2 of the detectors, with batch-means error bars.

G2(tau) = <I_a(t) I_b(t+tau)> / (<I_a(t)> <I_b(t+tau)>) with all three
averages taken over the same overlap window of length (N - k) samples,
k = tau/dt; this removes the O(tau/T) normalization bias of full-trace
means.  g1 averages over the same window.  Both map a delay to its lag by
one rule, ``_delay_index``: delays must sit on the sample grid
(interpolating would smear phase-jump discontinuities) and within half the
record, and correlation is linear, never circular.

The standard error comes from batch means: the overlap window is split into
``n_batches`` equal batches (default ``N_BATCHES`` = 20; the remainder of
the division counts towards the window value only), the estimator is
recomputed per batch, and the spread of batch values / sqrt(n_batches) is
reported.  With the default geometry each batch spans >= 50 coherence
times, so serial correlation within a batch does not bias the error estimate
much.

All estimators sum per segment of runs, never per sample.  At lag k the
window [0, n) is cut at the record's run starts, at the run starts shifted
by -k and (for g2) at the batch bounds; over each segment both factors are
constant, so every mean and centred product is a sum of segment length
times value.  The cost is O(runs) in time and memory, the values agree
with per-sample sums to rounding, and nothing is written into the record,
so one record may be estimated from several threads at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bench import DetectorTraces, detector_column
from .errors import InsufficientDataError, OffGridDelayError
from .source import FieldTrace, merge_starts

SCAN_KINDS = ("cross", "self3", "self4")
N_BATCHES = 20


@dataclass(frozen=True)
class CorrelationResult:
    """Estimated correlation at delay ``tau`` with batch-means standard error."""

    value: float
    tau: float
    n_samples: int
    std_error: float

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not (self.std_error >= 0.0):
            raise ValueError("std_error must be >= 0")


def _delay_index(tau: float, dt: float, n_total: int) -> int:
    """The lag k = tau/dt of a delay into a record of ``n_total`` samples,
    for a finite ``tau >= 0`` on the sample grid with 2k <= n_total."""
    if not math.isfinite(tau) or tau < 0.0:
        raise ValueError("tau must be finite and >= 0")
    k = int(round(tau / dt))
    if abs(tau - k * dt) > 1e-9 * dt:
        raise OffGridDelayError(
            f"tau={tau!r} is not an integer multiple of dt={dt!r}"
        )
    if 2 * k > n_total:
        raise InsufficientDataError(
            f"tau={tau!r} exceeds half the record length {n_total * dt!r}"
        )
    return k


def _segments(starts, x, y, n: int, k: int, bounds) -> tuple[np.ndarray, ...]:
    """Cut the window [0, n) at the run ``starts``, at the starts shifted by
    ``-k`` and at ``bounds`` (sorted, from 0, ending at n).  Over each
    segment x(t) and y(t + k) hold one value of the per-run ``x`` and
    ``y``.  Returns each segment's length, the two values and the index of
    the last bound at or before it."""
    points, (xrun, yrun, bound) = merge_starts(np.minimum(starts, n), np.maximum(starts - k, 0), bounds)
    return np.diff(points), x[xrun[:-1]], y[yrun[:-1]], bound[:-1]


def _g2(traces: DetectorTraces, a: int, b: int, tau: float, n_batches: int) -> CorrelationResult:
    """g2 of x = column ``a`` of the runs at t and y = column ``b`` at t + tau."""
    if n_batches < 2:
        raise ValueError("n_batches must be >= 2")
    dt = traces.dt
    k = _delay_index(tau, dt, traces.n)
    n = traces.n - k
    if n < n_batches:
        raise InsufficientDataError(
            f"overlap window of {n} samples is shorter than {n_batches} batches"
        )
    m = n // n_batches
    # Batch j covers [j m, (j + 1) m); the tail [n_batches m, n) is batch
    # n_batches, which counts towards the window only.
    bounds = np.append(np.arange(n_batches + 1) * m, n)
    length, x, y, batch = _segments(traces.starts, traces.values[:, a], traces.values[:, b], n, k, bounds)
    sx = np.bincount(batch, length * x, minlength=n_batches + 1)
    sy = np.bincount(batch, length * y, minlength=n_batches + 1)
    # Positive batch means imply a positive window mean.
    if not (sx[:n_batches].min() > 0.0 and sy[:n_batches].min() > 0.0):
        raise InsufficientDataError("zero mean intensity in a batch of the overlap window")
    # 1 + cov/(mx*my) == <xy>/(<x><y>) but exact (1.0) for constant inputs
    # and free of the large-term cancellation.
    mx, my = sx.sum() / n, sy.sum() / n
    dx = x - mx
    dx *= y - my
    dx *= length
    value = float(1.0 + np.sum(dx) / n / (mx * my))
    # The batches centre x and y in place: the segment arrays are the
    # largest this estimator holds.
    bx, by = sx / m, sy / m
    x -= bx[batch]
    y -= by[batch]
    x *= y
    x *= length
    cov = np.bincount(batch, x, minlength=n_batches + 1)[:n_batches] / m
    batch_vals = 1.0 + cov / (bx * by)[:n_batches]
    std_error = float(np.std(batch_vals, ddof=1) / math.sqrt(n_batches))
    return CorrelationResult(value=value, tau=k * dt, n_samples=n, std_error=std_error)


def g2_cross(traces: DetectorTraces, tau: float, n_batches: int = N_BATCHES) -> CorrelationResult:
    """<I3(t) I4(t+tau)> / (<I3><I4>) over the overlap window."""
    return _g2(traces, 0, 1, tau, n_batches)


def g2_self(traces: DetectorTraces, which: int, tau: float, n_batches: int = N_BATCHES) -> CorrelationResult:
    """<I_i(t) I_i(t+tau)> / <I_i>^2 for detector ``which`` (3 or 4)."""
    col = detector_column(which)
    return _g2(traces, col, col, tau, n_batches)


def g2_delay_scan(
    traces: DetectorTraces,
    kind: str,
    taus: Sequence[float],
    n_batches: int = N_BATCHES,
) -> list[CorrelationResult]:
    """Apply the selected estimator over a delay grid, preserving order."""
    if kind == "cross":
        return [g2_cross(traces, tau, n_batches) for tau in taus]
    if kind == "self3":
        return [g2_self(traces, 3, tau, n_batches) for tau in taus]
    if kind == "self4":
        return [g2_self(traces, 4, tau, n_batches) for tau in taus]
    raise ValueError(f"unknown scan kind {kind!r}; expected one of {SCAN_KINDS}")


def first_order_coherence(trace: FieldTrace, tau: float) -> complex:
    """Normalized field autocorrelation <conj(E(t)) E(t+tau)> / <|E(t)|^2>.

    Both averages run over the same overlap window; tau = 0 returns exactly 1
    unless the window has zero power.
    """
    k = _delay_index(tau, trace.dt, trace.n)
    n = trace.n - k
    length, head, shifted, _ = _segments(trace.starts, trace.values, trace.values, n, k, [n])
    den = np.sum(length * (head.conj() * head).real) / n
    if not den > 0.0:
        raise InsufficientDataError("zero field power in the overlap window")
    if k == 0:
        return 1.0 + 0.0j  # numerator and denominator coincide identically
    num = np.sum(length * (head.conj() * shifted)) / n
    return complex(num / den)
