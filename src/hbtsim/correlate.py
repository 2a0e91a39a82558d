"""Normalized correlation estimators: the field coherence g1 of a source and
the intensity correlations g2 of the detectors, with batch-means error bars.

G2(tau) = <I_a(t) I_b(t+tau)> / (<I_a(t)> <I_b(t+tau)>) with all three
averages taken over the same overlap window of length (N - k) samples,
k = tau/dt; this removes the O(tau/T) normalization bias of full-trace
means.  g1 averages over the same window.  Both map a delay to its lag by
one rule, ``delay_lag``, which the command line applies too: delays must be
finite and >= 0, lie within half the record, leave an overlap window of at
least one sample per batch (g1 takes the whole window as its one batch) and
sit on the sample grid (interpolating would smear phase-jump
discontinuities); correlation is linear, never circular.

The standard error comes from batch means: the overlap window is split into
``N_BATCHES`` = 20 equal batches (the remainder of the division counts
towards the window value only), the estimator is recomputed per batch, and
the spread of batch values / sqrt(N_BATCHES) is reported.  With the default
geometry each batch spans >= 50 coherence times, so serial correlation
within a batch does not bias the error estimate much.

All estimators sum per segment of runs, never per sample.  At lag k the
window [0, n) is cut at the record's run starts below n, at the run starts
shifted by -k from the run that holds t = k on (its start moves to 0), and
at the batch bounds j m (j <= N_BATCHES) and n; over each segment both
factors are constant, so every mean and centred product is a sum of
segment length times value.  One ``merge_starts`` per lag finds the
segments: a stable sort of the three lists, one running count that gives
the run at t, and the run at t + k from each point's place in the sort
less that count and less the bounds at or before the point, min(p // m,
N_BATCHES) + 1, which is arithmetic, not a count (at lag 0 the shifted
starts are the starts, merged once, and nothing is counted).  The lengths
are floats, converted once per lag, and the batches start where the
bounds sit among the segments.  The cost is O(runs) in time and memory,
the values agree with per-sample sums to rounding, and nothing is written
into the record, so one record may be estimated from several threads at
once.

``scan`` is the one g2 kernel.  It reads each detector column in units of the
power of two at its peak: g2 does not depend on the intensity unit, and the
scaling is exact, so g2 keeps its bits and no sum of products overflows.  It
merges the segments once per lag and shares them between the kinds it is
asked for.  Each of the (at most four) factor columns, I3 and I4 at t and at
t + k, is built once per lag with its window mean and batch means, and every
kind that reads it reuses it.  Per kind there is one centred product, length
(x - mx)(y - my), whose batch sums, like a column's, are one ``np.add.reduceat``
over the time-ordered segments.  The batch covariances follow from the
pairwise-update identity of Chan, Golub & LeVeque (1983), over batch j:

    sum l (x - bx_j)(y - by_j) = sum l (x - mx)(y - my) - m (bx_j - mx)(by_j - my),

so no column is centred on its batch means.  A batch where
|(bx_j - mx)(by_j - my)| exceeds bx_j by_j (one far dimmer than the window)
would lose more than an ulp of its value to that subtraction, so it alone
is summed again about its own means, in units of their powers of two so
that no product underflows.  A kind's results are the same bits whichever
kinds share its scan; ``g2_cross``, ``g2_self`` and ``g2_delay_scan`` are
one-kind scans.  Every delay is checked (``delay_lag``) before the first
lag is scanned, and lags are scanned one at a time, so the temporaries
stay those of one lag.

Most of a lag's cost is per call, not per segment, so the small arrays are
worked in blocks.  The kinds' batch and window means, batch sums, shifts,
covariances and batch values are each one ``(kinds, batches)`` array,
computed once per lag for all kinds; each lag writes its values into one
``(lags, kinds)`` array and its batch values into one ``(lags, kinds,
batches)`` array, and the batch errors are one ``np.std`` per scan.  The
per-segment arrays (factor columns, centred products) stay 1-d, and few of
them are alive at once.  Arrays over all lags (past the allocator's mmap
threshold) and columns stacked into 2-d blocks (more memory at the heap
top, trimmed and grown again) both fault in fresh pages on every use, and
both ran slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bench import DetectorTraces, detector_column
from .errors import InsufficientDataError, OffGridDelayError
from .source import FieldTrace, merge_starts

# The (x, y) columns of ``DetectorTraces.values``, and rows of
# ``bench.amplitudes``, that each g2 kind reads (``oracle.predict_g2`` too).
KIND_COLUMNS = {"cross": (0, 1), "self3": (0, 0), "self4": (1, 1)}
SCAN_KINDS = tuple(KIND_COLUMNS)
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


def delay_lag(tau: float, dt: float, n: int, n_batches: int = N_BATCHES) -> int:
    """The lag k = tau/dt of a delay into a record of ``n`` samples of period
    ``dt``, for a finite ``tau >= 0`` with 2k <= n, an overlap window of at
    least ``n_batches`` samples, and on the sample grid.

    The grid is checked last, so a delay that the caller snaps onto it (a
    grid end) meets the same bounds first.
    """
    if not math.isfinite(tau) or tau < 0.0:
        raise ValueError("tau must be finite and >= 0")
    lag = tau / dt
    # A lag beyond the record (inf, if tau/dt overflows) is beyond half of
    # it before round() sees it.
    if lag > n or 2 * round(lag) > n:
        raise InsufficientDataError(f"tau={tau!r} exceeds half the record length {n * dt!r}")
    k = round(lag)
    if n - k < n_batches:
        raise InsufficientDataError(f"overlap window of {n - k} samples is shorter than {n_batches} batches")
    # A delay typed in decimal is off k*dt by its own rounding, which grows
    # with tau: a few ulps of tau on top of the fixed share of dt.
    if abs(tau - k * dt) > 1e-9 * dt + 4 * math.ulp(tau):
        raise OffGridDelayError(f"tau={tau!r} is not an integer multiple of dt={dt!r}")
    return k


def _segments(starts, n: int, k: int, n_batches: int) -> tuple:
    """Cut the window [0, n) at the run ``starts``, at the starts shifted by
    ``-k`` and at the batch bounds j m (j = 0..n_batches, m = n //
    n_batches).  Returns each segment's length as a float (so that no
    product with a factor column casts it), the runs that hold t and t + k
    over it, and the first segment of each batch and of the tail
    [n_batches m, n), which is ``len(length)`` if the tail is empty."""
    m = n // n_batches
    bounds = np.arange(n_batches + 2) * m
    bounds[-1] = n
    if k == 0:  # the shifted starts are the starts, all below n: merge them once
        points, (run, _) = merge_starts(starts, bounds, step=m)
        runs = (run[:-1],) * 2
    else:
        # The starts below n, and the shifted starts from that of the run
        # that holds t = k, which moves to 0; t + k then lies in run
        # ``first`` plus its index among them.
        first = starts.searchsorted(k, "right") - 1
        shifted = starts[first:] - k
        shifted[0] = 0
        points, (xrun, yrun, _) = merge_starts(starts[:starts.searchsorted(n)], shifted, bounds, step=m)
        yrun += first
        runs = xrun[:-1], yrun[:-1]
    return (points[1:] - points[:-1]).astype(float), runs, points.searchsorted(bounds[:-1])


def scan(
    traces: DetectorTraces,
    taus: Sequence[float],
    kinds: Sequence[str] = SCAN_KINDS,
) -> tuple[np.ndarray, np.ndarray]:
    """g2 of each of ``kinds`` at each delay of ``taus``, and its standard
    error: two float arrays of shape ``(len(kinds), len(taus))``, a row per
    kind and a column per delay.

    Kind ``cross`` correlates x = I3 at t with y = I4 at t + tau, ``self3``
    and ``self4`` a detector with itself.  The module docstring says how
    the lags and kinds share their work and memory.
    """
    unknown = [kind for kind in kinds if kind not in KIND_COLUMNS]
    if unknown:
        raise ValueError(f"unknown scan kind {unknown[0]!r}; expected one of {SCAN_KINDS}")
    pairs = [KIND_COLUMNS[kind] for kind in kinds]
    lags = [delay_lag(tau, traces.dt, traces.n) for tau in taus]
    # I3 and I4 per run, each in units of the power of two at its peak
    columns = [np.ldexp(column, -math.frexp(column.max())[1]) for column in traces.values.T]
    values = np.empty((len(lags), len(pairs)))
    batch_vals = np.empty((len(lags), len(pairs), N_BATCHES))
    for k, row, block in zip(lags, values, batch_vals):
        _scan_lag(traces, columns, k, pairs, row, block)
    # Each row of one std over the last axis is the same bits as its own 1-d std.
    errors = np.std(batch_vals, axis=2, ddof=1) / math.sqrt(N_BATCHES)
    if not (errors >= 0.0).all():  # a NaN never reaches a CSV
        raise ValueError("std_error must be >= 0")
    return values.T, errors.T


def _scan_lag(traces: DetectorTraces, columns, k: int, pairs, values, batch_vals) -> None:
    """g2 at lag ``k`` of each (x, y) column pair of ``pairs`` into ``values``,
    and its batch values into the rows of ``batch_vals``, one per pair."""
    n = traces.n - k
    m = n // N_BATCHES
    # Batch j covers [j m, (j + 1) m) and is the segments edges[j]:edges[j + 1]
    # (in time order, and every batch holds m >= 1 samples); the tail
    # [N_BATCHES m, n) counts towards the window only, and is a group only
    # if it holds any.
    length, runs, edges = _segments(traces.starts, n, k, N_BATCHES)
    groups = edges if edges[-1] < len(length) else edges[:-1]
    # Each factor column, keyed (column, 0 at t or 1 at t + k; t + 0 is t),
    # with its window mean, centred on it, and its batch means.
    shifted = 1 if k else 0
    factors = {}
    for a, b in pairs:
        for key in ((a, 0), (b, shifted)):
            if key in factors:
                continue
            v = columns[key[0]][runs[key[1]]]
            s = np.add.reduceat(length * v, groups)
            # Positive batch means imply a positive window mean.
            if not s[:N_BATCHES].min() > 0.0:
                raise InsufficientDataError("zero mean intensity in a batch of the overlap window")
            mean = s.sum() / n
            factors[key] = mean, v - mean, s[:N_BATCHES] / m
    # Per kind (row): the window sum and the batch sums of its centred
    # product, and its factors' window and batch means.
    window = np.empty(len(pairs))
    sums, bx, by = (np.empty((len(pairs), N_BATCHES)) for _ in range(3))
    mx, my = np.empty((len(pairs), 1)), np.empty((len(pairs), 1))
    for i, (a, b) in enumerate(pairs):
        mx[i], dx, bx[i] = factors[a, 0]
        my[i], dy, by[i] = factors[b, shifted]
        prod = dx * dy
        prod *= length
        s = np.add.reduceat(prod, groups)
        window[i] = s.sum()
        sums[i] = s[:N_BATCHES]
    # 1 + cov/(mx*my) == <xy>/(<x><y>) but exact (1.0) for constant inputs
    # and free of the large-term cancellation.
    np.add(1.0, window / n / (mx * my)[:, 0], out=values)
    # Each batch's own centred product sum is the window-centred one less
    # m (bx - mx)(by - my) (Chan, Golub & LeVeque 1983).  Where that term
    # exceeds bx by (a batch far dimmer than the window), its rounding would
    # exceed an ulp of the batch value, so such a batch is summed again
    # about its own means, in units of their powers of two (no underflow).
    shift = (bx - mx) * (by - my)
    cov = sums / m - shift
    norm = bx * by
    for i, j in zip(*(np.abs(shift) > norm).nonzero()):
        (a, b), seg = pairs[i], slice(edges[j], edges[j + 1])
        (mean_x, ex), (mean_y, ey) = math.frexp(bx[i, j]), math.frexp(by[i, j])
        x, y = np.ldexp(columns[a][runs[0][seg]], -ex), np.ldexp(columns[b][runs[shifted][seg]], -ey)
        cov[i, j] = np.sum(length[seg] * (x - mean_x) * (y - mean_y)) / m
        norm[i, j] = mean_x * mean_y
    np.divide(cov, norm, out=batch_vals)
    batch_vals += 1.0


def g2_cross(traces: DetectorTraces, tau: float) -> CorrelationResult:
    """<I3(t) I4(t+tau)> / (<I3><I4>) over the overlap window."""
    return g2_delay_scan(traces, "cross", [tau])[0]


def g2_self(traces: DetectorTraces, which: int, tau: float) -> CorrelationResult:
    """<I_i(t) I_i(t+tau)> / <I_i>^2 for detector ``which`` (3 or 4)."""
    return g2_delay_scan(traces, ("self3", "self4")[detector_column(which)], [tau])[0]


def g2_delay_scan(traces: DetectorTraces, kind: str, taus: Sequence[float]) -> list[CorrelationResult]:
    """The one-kind ``scan``, one result per delay of ``taus``."""
    (values,), (errors,) = scan(traces, taus, (kind,))
    lags = [delay_lag(tau, traces.dt, traces.n) for tau in taus]
    return [CorrelationResult(v, k * traces.dt, traces.n - k, e) for k, v, e in zip(lags, values.tolist(), errors.tolist())]


def first_order_coherence(trace: FieldTrace, tau: float) -> complex:
    """Normalized field autocorrelation <conj(E(t)) E(t+tau)> / <|E(t)|^2>.

    Both averages run over the same overlap window; tau = 0 returns exactly 1
    unless the window has zero power.
    """
    k = delay_lag(tau, trace.dt, trace.n, 1)
    n = trace.n - k
    length, (head, shifted), _ = _segments(trace.starts, n, k, 1)
    head, shifted = trace.values[head], trace.values[shifted]
    den = np.sum(length * (head.conj() * head).real) / n
    if not den > 0.0:
        raise InsufficientDataError("zero field power in the overlap window")
    if k == 0:
        return 1.0 + 0.0j  # numerator and denominator coincide identically
    num = np.sum(length * (head.conj() * shifted)) / n
    return complex(num / den)
