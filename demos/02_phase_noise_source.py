#!/usr/bin/env python3
"""Anatomy of the phase-noise-only source.

Draws dwell times from the truncated-exponential sampler and compares the
histogram against the renormalized density, confirms the intensity of a
generated trace never fluctuates (all the noise lives in the phase), and
tabulates the decay of first-order coherence |g1(tau)| together with the
mutual incoherence of two independently seeded sources.
"""

import math

import numpy as np

from hbtsim.correlate import first_order_coherence
from hbtsim.source import default_source_config, generate_trace, sample_dwell, truncated_dwell_mean

BAR = 40


def main():
    cfg = default_source_config()
    us = 1e-6
    print(f"Source: t_c = {cfg.t_c/us:.0f} us, dwells in [{cfg.t_min/us:.0f}, "
          f"{cfg.t_max/us:.0f}] us, unit amplitude\n")

    draws = sample_dwell(cfg, np.random.default_rng(1).random(200_000))
    print(f"dwell mean: sampled {np.mean(draws)/us:.3f} us vs analytic "
          f"{truncated_dwell_mean(cfg)/us:.3f} us")
    print("dwell histogram vs renormalized exponential density:")
    edges = np.linspace(cfg.t_min, 6 * cfg.t_c, 13)
    counts, _ = np.histogram(draws, bins=edges)
    norm = math.exp(-cfg.t_min / cfg.t_c) - math.exp(-cfg.t_max / cfg.t_c)
    peak = counts.max() / len(draws)
    for lo, hi, n in zip(edges[:-1], edges[1:], counts):
        expect = (math.exp(-lo / cfg.t_c) - math.exp(-hi / cfg.t_c)) / norm
        seen = n / len(draws)
        bar = "#" * int(round(BAR * seen / peak))
        print(f"  {lo/us:5.1f}-{hi/us:5.1f} us  seen {seen:.4f}  expect {expect:.4f}  {bar}")
    print()

    trace = generate_trace(cfg, 2e-2, 1e-7, np.random.default_rng(2))
    intensity = np.abs(trace.samples) ** 2
    print(f"intensity of the trace: mean {intensity.mean():.6f}, relative std "
          f"{intensity.std()/intensity.mean():.2e}  (pure phase noise)\n")

    print("first-order coherence |g1(tau)|:")
    for k in range(6):
        tau = k * cfg.t_c
        mag = abs(first_order_coherence(trace, tau))
        print(f"  tau = {k} t_c   |g1| = {mag:.4f}  {'#' * int(round(BAR * mag))}")
    print()

    other = generate_trace(cfg, 2e-2, 1e-7, np.random.default_rng(3))
    cross = abs(np.mean(trace.samples.conj() * other.samples))
    print(f"two independent sources: |<conj(E1) E2>| = {cross:.4f}  (incoherent)")


if __name__ == "__main__":
    main()
