"""Phase-noise-only classical light sources.

A source emits a unit-modulus complex field whose phase is piecewise
constant: it dwells for a random time T, then jumps by an angle drawn
uniformly on the circle.  Dwell times follow an exponential of scale ``t_c``
truncated to [t_min, t_max] and renormalized there, so the coherence of the
field is lost on the scale t_c.
The instantaneous intensity |E|^2 never fluctuates: all the noise is in the
phase, and a common field amplitude would cancel from every normalised
correlation.  Because the field is constant between jumps, a trace is
stored and built as its runs of equal samples, ``FieldTrace(dt, n, starts,
values)``: ``phase_jump_process`` draws the dwells and jumps in whole
arrays, ``generate_trace`` places every jump on the sample grid at once and
evaluates the field once per phase level it keeps, and the per-sample
array is built only when ``FieldTrace.samples`` is first read, bitwise
equal to evaluating the field at every sample.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PhaseNoiseConfig:
    """Dwell-time scale t_c and truncation bounds [t_min, t_max] (seconds)."""

    t_c: float
    t_min: float
    t_max: float

    def __post_init__(self):
        for name in ("t_min", "t_c", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (0.0 < self.t_min < self.t_c < self.t_max):
            raise ValueError("require 0 < t_min < t_c < t_max")


def default_source_config() -> PhaseNoiseConfig:
    """The bench-scale defaults: t_c = 10 us, dwells in [1 us, 100 us]."""
    return PhaseNoiseConfig(t_c=10e-6, t_min=1e-6, t_max=100e-6)


def merge_starts(*lists: np.ndarray, step: int = 0) -> tuple[np.ndarray, list[np.ndarray]]:
    """The sorted union of sorted sample lists, and for each list the index
    of its last element at or before each point of the union (-1 if none).

    A list of run starts thus maps each union point to the run it falls in.
    A stable sort of sorted lists is a linear merge, and it keeps the lists
    in order: the elements of lists 0..i are those whose place in the
    concatenation is below the end of list i.  At the last of each group of
    equal points, the running count of those elements, less that of lists
    0..i-1 and less one, is list i's index; the last list's index is the
    position less the count of all the others, so L lists take L - 1 counts.

    A ``step`` > 0 declares the last list a grid: 0, step, 2 step, ... and
    then one end that no element of any list exceeds (the batch bounds of a
    window).  Its index at a point p is min(p // step, len - 2) below the
    end and len - 1 at it, computed rather than counted, and the list
    before it takes the position less the others: L lists take L - 2 counts.
    """
    points = np.concatenate(lists)
    order = points.argsort(kind="stable")
    points = points[order]
    is_last = np.empty(len(points), dtype=bool)
    np.not_equal(points[1:], points[:-1], out=is_last[:-1])
    is_last[-1] = True
    (last,) = is_last.nonzero()
    points = points[last]
    position, computed = last, []
    if step:
        *lists, grid = lists
        index = points // step
        np.minimum(index, len(grid) - 2, out=index)
        index[-1] = len(grid) - 1
        computed.append(index)
        position = last - index
        position -= 1  # less the grid's count
    ends = list(itertools.accumulate(map(len, lists[:-1])))
    runs, below = [], 0
    for i, end in enumerate(ends):
        # The last count may take order's memory: nothing reads order after it.
        upto = (order < end).cumsum(out=order if i == len(ends) - 1 else None)[last]
        run = upto - below
        run -= 1
        runs.append(run)
        below = upto
    runs.append(position - below)
    return points, runs + computed


class RunLengthRecord:
    """``n`` samples of period ``dt`` stored as runs: run ``r`` holds
    ``values[r]`` on samples ``starts[r]`` up to the next start (or ``n``).

    The runs are checked and copied; ``n`` and ``starts`` must be integers
    (a float is refused, not truncated), ``starts`` and ``values`` are
    read-only, and adjacent runs may hold equal values.  Per-sample data is
    one run per sample (``starts = np.arange(n)``).
    """

    def __init__(self, dt: float, n: int, starts, values):
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if not isinstance(n, numbers.Integral):
            raise ValueError("n must be an integer")
        if n < 1:
            raise ValueError("a record needs at least one sample")
        starts = np.array(starts)
        if starts.size and starts.dtype.kind not in "iu":
            raise ValueError("run starts must be integers")
        starts = starts.astype(np.intp, copy=False)
        if not (starts.ndim == 1 and starts.size and starts[0] == 0 and starts[-1] < n
                and (starts[1:] > starts[:-1]).all()):
            raise ValueError("runs must start at sample 0, then at increasing samples below n")
        values = self._checked_values(values, len(starts))
        starts.flags.writeable = False
        values.flags.writeable = False
        self.dt, self.n, self.starts, self.values = dt, int(n), starts, values

    @staticmethod
    def _checked_values(values, runs: int) -> np.ndarray:
        """A private copy of the run values, checked."""
        raise NotImplementedError

    def __len__(self) -> int:
        return self.n

    @property
    def counts(self) -> np.ndarray:
        """The number of samples in each run."""
        starts = self.starts
        counts = np.empty_like(starts)
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1] = self.n - starts[-1]
        return counts

    def _expand(self, values: np.ndarray) -> np.ndarray:
        """Per-sample, read-only: each run's value repeated over its run."""
        out = np.repeat(values, self.counts)
        out.flags.writeable = False
        return out


class FieldTrace(RunLengthRecord):
    """Uniformly sampled complex field of period ``dt``, stored as runs of
    equal samples; ``samples`` is built from the runs on first read."""

    @staticmethod
    def _checked_values(values, runs: int) -> np.ndarray:
        values = np.array(values, dtype=complex)
        if values.shape != (runs,):
            raise ValueError("expected one field value per run")
        if not np.isfinite(values).all():
            raise ValueError("samples must be finite")
        return values

    @cached_property
    def samples(self) -> np.ndarray:
        return self._expand(self.values)


def sample_dwell(config: PhaseNoiseConfig, u):
    """Dwell time for uniform variate(s) ``u`` in [0, 1), by inverse CDF.

    T = -t_c * ln(e^{-t_min/t_c} - u * (e^{-t_min/t_c} - e^{-t_max/t_c})),
    the quantile function of the exponential density renormalized on
    [t_min, t_max]; u = 0 gives t_min, u -> 1 gives t_max.  Accepts scalars
    or arrays.
    """
    u_arr = np.asarray(u, dtype=float)
    # min and max carry a NaN through, and then both comparisons fail.
    if u_arr.size and not (u_arr.min() >= 0.0 and u_arr.max() < 1.0):
        raise ValueError("u must lie in [0, 1)")
    lo = math.exp(-config.t_min / config.t_c)
    hi = math.exp(-config.t_max / config.t_c)
    t = -config.t_c * np.log(lo - u_arr * (lo - hi))
    t = t.clip(config.t_min, config.t_max)  # guard endpoint rounding
    return float(t) if np.isscalar(u) or u_arr.ndim == 0 else t


def truncated_dwell_mean(config: PhaseNoiseConfig) -> float:
    """Mean dwell time of the renormalized truncated-exponential density."""
    tc = config.t_c
    a, b = config.t_min / tc, config.t_max / tc
    # (1 + b) e^-b is 0.0 in floats long before t_max / t_c overflows to inf.
    tail = (1.0 + b) * math.exp(-b) if b < math.inf else 0.0
    num = tc * ((1.0 + a) * math.exp(-a) - tail)
    den = math.exp(-a) - math.exp(-b)
    return num / den


def phase_jump_process(
    config: PhaseNoiseConfig, duration: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Jump times in (0, duration] and phase levels (initial phase first).

    ``levels[i]`` is the phase held on [jump_times[i-1], jump_times[i]); the
    initial phase ``levels[0]`` is itself uniform on [0, 2*pi).  Jumps are
    increments uniform on [0, 2*pi), so the level sequence is i.i.d. uniform
    on the circle (mod 2*pi).  Deterministic for a given stream.
    """
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError("duration must be positive and finite")
    mean_dwell = truncated_dwell_mean(config)
    chunk = int(duration / mean_dwell * 1.25) + 16
    dwells = sample_dwell(config, rng.random(chunk))
    total = float(dwells.sum())
    while total < duration:
        extra = sample_dwell(config, rng.random(chunk // 2 + 16))
        dwells = np.concatenate([dwells, extra])
        total += float(extra.sum())
    # The sums of positive dwells never decrease: the jumps in (0, duration]
    # are a prefix.
    jump_times = dwells.cumsum()
    jump_times = jump_times[:jump_times.searchsorted(duration, "right")]
    theta0 = 2.0 * math.pi * rng.random()
    deltas = 2.0 * math.pi * rng.random(len(jump_times))
    levels = np.empty(len(jump_times) + 1)
    levels[0] = 0.0
    deltas.cumsum(out=levels[1:])
    levels += theta0
    return jump_times, levels


def generate_trace(
    config: PhaseNoiseConfig,
    duration: float,
    dt: float,
    rng: np.random.Generator,
) -> FieldTrace:
    """Sample the phase-noise field on a uniform grid of period ``dt``.

    A jump landing between sample instants takes effect at the next sample
    (sample-and-hold).  The field is computed once per phase level that
    holds at least one sample, bitwise equal to computing it per sample.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    jump_times, levels = phase_jump_process(config, duration, rng)
    n = int(round(duration / dt))
    # Level i + 1 starts at the first sample instant k * dt at or after jump
    # i (or at n if there is none).  The quotient may round across an
    # integer, so step k until it is the least with k * dt >= jump_time as
    # floats, the instants a per-sample grid would hold.
    k = jump_times / dt
    np.ceil(k, out=k)
    while (early := k * dt < jump_times).any():
        k += early
    while (late := (k - 1.0) * dt >= jump_times).any():
        k -= late
    starts = np.empty(len(k) + 1, dtype=np.intp)
    starts[0] = 0
    starts[1:] = np.minimum(k, n, out=k)
    # A level whose next jump comes before its first sample holds none.
    kept = np.empty(len(starts), dtype=bool)
    np.greater(starts[1:], starts[:-1], out=kept[:-1])
    kept[-1] = n > starts[-1]
    return FieldTrace(dt, n, starts[kept], np.exp(1j * levels[kept]))
