"""End-to-end experiment runs: sources -> bench -> correlations.

Seeding is fully deterministic and documented: repeat ``r`` of a run uses
master entropy ``seed + r``; sweep point ``i`` selects the spawn key
``(i,)`` on that master sequence; the two source streams are the first two
children spawned from it.  Everything downstream is a pure function of the
generated traces.  So repeat ``r`` of seed ``s`` is repeat 0 of seed
``s + r``: the runs of seeds less than ``sim.repeats`` apart share records,
and a multi-seed study must space its seeds at least ``sim.repeats`` apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bench import BenchConfig, DetectorTraces, mean_intensity, propagate
from .correlate import scan
# The benchmark's tracer patches these two names (ROADMAP item 4); nothing
# here calls them.
from .correlate import g2_cross, g2_self  # noqa: F401
from .source import PhaseNoiseConfig, generate_trace


def detector_streams(
    seed: int, repeat: int = 0, point: int = 0
) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent per-source RNG streams for one (sweep point, repeat)."""
    root = np.random.SeedSequence(seed + repeat, spawn_key=(point,))
    child1, child2 = root.spawn(2)
    return np.random.default_rng(child1), np.random.default_rng(child2)


def simulate_detectors(
    source_cfg: PhaseNoiseConfig,
    bench_cfg: BenchConfig,
    duration: float,
    dt: float,
    seed: int,
    repeat: int = 0,
    point: int = 0,
) -> DetectorTraces:
    """Generate both source traces and push them through the bench."""
    rng1, rng2 = detector_streams(seed, repeat, point)
    e1 = generate_trace(source_cfg, duration, dt, rng1)
    e2 = generate_trace(source_cfg, duration, dt, rng2)
    return propagate(e1, e2, bench_cfg)


@dataclass(frozen=True)
class PointEstimates:
    """Repeat-averaged estimates of the bench ``bench`` over the delays
    ``taus``: ``g2`` and ``g2_err`` are ``correlate.scan``'s values and errors,
    a row per kind of ``correlate.SCAN_KINDS`` and a column per delay."""

    bench: BenchConfig
    taus: tuple[float, ...]
    g2: np.ndarray
    g2_err: np.ndarray
    i3_mean: float
    i4_mean: float


def estimate_point(
    source_cfg: PhaseNoiseConfig,
    bench_cfg: BenchConfig,
    duration: float,
    dt: float,
    seed: int,
    taus,
    repeats: int = 1,
    point: int = 0,
) -> PointEstimates:
    """Run ``repeats`` fresh-seeded pipelines of ``bench_cfg`` and average.

    Every tau in the grid is evaluated on the same records (a delay scan of
    each repeat's trace; the scans are all held until the end, and
    ``cli.sweep_grids`` charges them).  One repeat is its own scan; more are
    averaged with errors in quadrature, the bits of ``sum(v) / r`` and
    ``sqrt(sum(e ** 2)) / r`` in Python floats (``np.float_power``, like ``**``, calls libm ``pow``).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    scans, means = [], []
    for r in range(repeats):
        traces = simulate_detectors(source_cfg, bench_cfg, duration, dt, seed, r, point)
        scans.append(scan(traces, taus))
        means.append(mean_intensity(traces))
    # Each detector's mean over the repeats, summed in units of 2**e > repeats so that it stays finite.
    _, e = math.frexp(repeats)
    i3_mean, i4_mean = (math.ldexp(float(np.mean(np.ldexp(v, -e))), e) for v in zip(*means))
    g2, g2_err = scans[0]
    if repeats > 1:
        g2 = sum(values for values, _ in scans) / repeats
        g2_err = np.sqrt(sum(np.float_power(errors, 2.0) for _, errors in scans)) / repeats
    return PointEstimates(
        bench=bench_cfg,
        taus=tuple(float(t) for t in taus),
        g2=g2, g2_err=g2_err,
        i3_mean=i3_mean, i4_mean=i4_mean,
    )
