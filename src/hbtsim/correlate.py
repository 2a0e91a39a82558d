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
``n_batches`` equal batches (default ``N_BATCHES`` = 20), the estimator is
recomputed per batch, and the spread of batch values / sqrt(n_batches) is
reported.  With the default geometry each batch spans >= 50 coherence
times, so serial correlation within a batch does not bias the error estimate
much.

The g2 estimators allocate nothing of the window's size: they write the
centred windows into the two ``DetectorTraces.work_buffers`` of the record,
batches first and then the whole window, so every reduction reads the same
contiguous operands a fresh temporary would hold and the values keep their
bits.  One record must therefore not be estimated from two threads at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bench import DetectorTraces
from .errors import InsufficientDataError, OffGridDelayError
from .source import FieldTrace

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


def _normalized_product_mean(x: np.ndarray, y: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """<xy>/(<x><y>) along the last axis of nonnegative ``x`` and ``y``;
    ``dx`` and ``dy`` are work arrays of the same shape, overwritten."""
    mx = x.mean(axis=-1, keepdims=True)
    my = y.mean(axis=-1, keepdims=True)
    if not (mx.min() > 0.0 and my.min() > 0.0):
        raise InsufficientDataError("zero mean intensity in a batch of the overlap window")
    # 1 + cov/(mx*my) == <xy>/(<x><y>) but exact (1.0) for constant inputs
    # and free of the large-term cancellation.
    np.subtract(x, mx, out=dx)
    np.subtract(y, my, out=dy)
    return 1.0 + np.multiply(dx, dy, out=dx).mean(axis=-1) / (mx * my)[..., 0]


def _g2(traces: DetectorTraces, x: np.ndarray, y: np.ndarray, tau: float, n_batches: int) -> CorrelationResult:
    if n_batches < 2:
        raise ValueError("n_batches must be >= 2")
    dt = traces.dt
    k = _delay_index(tau, dt, len(x))
    n = len(x) - k
    if n < n_batches:
        raise InsufficientDataError(
            f"overlap window of {n} samples is shorter than {n_batches} batches"
        )
    xw = x[:n]
    yw = y[k : k + n]
    m = n // n_batches
    dx, dy = traces.work_buffers
    batched = [a[: m * n_batches].reshape(n_batches, m) for a in (xw, yw, dx, dy)]
    # Batches first: positive batch means imply a positive window mean.
    batch_vals = _normalized_product_mean(*batched)
    value = float(_normalized_product_mean(xw, yw, dx[:n], dy[:n]))
    std_error = float(np.std(batch_vals, ddof=1) / math.sqrt(n_batches))
    return CorrelationResult(value=value, tau=k * dt, n_samples=n, std_error=std_error)


def g2_cross(traces: DetectorTraces, tau: float, n_batches: int = N_BATCHES) -> CorrelationResult:
    """<I3(t) I4(t+tau)> / (<I3><I4>) over the overlap window."""
    return _g2(traces, traces.i3, traces.i4, tau, n_batches)


def g2_self(traces: DetectorTraces, which: int, tau: float, n_batches: int = N_BATCHES) -> CorrelationResult:
    """<I_i(t) I_i(t+tau)> / <I_i>^2 for detector ``which`` (3 or 4)."""
    series = traces.series(which)
    return _g2(traces, series, series, tau, n_batches)


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
    n_total = len(trace)
    k = _delay_index(tau, trace.dt, n_total)
    n = n_total - k
    head = trace.samples[:n]
    den = np.mean((head.conj() * head).real)
    if not den > 0.0:
        raise InsufficientDataError("zero field power in the overlap window")
    if k == 0:
        return 1.0 + 0.0j  # numerator and denominator coincide identically
    num = np.mean(head.conj() * trace.samples[k : k + n])
    return complex(num / den)
