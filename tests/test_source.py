import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from hbtsim.cli import build_run_config
from hbtsim.correlate import first_order_coherence
from hbtsim.errors import InsufficientDataError
from hbtsim.source import (
    FieldTrace,
    PhaseNoiseConfig,
    default_source_config,
    generate_trace,
    merge_starts,
    phase_jump_process,
    sample_dwell,
    truncated_dwell_mean,
)

CFG = default_source_config()
T_C = CFG.t_c


def quad_dwell_mean(cfg: PhaseNoiseConfig) -> float:
    """Dwell-mean oracle by numerical quadrature of the renormalized density."""
    density = lambda t: math.exp(-t / cfg.t_c) / cfg.t_c
    norm, _ = integrate.quad(density, cfg.t_min, cfg.t_max)
    mean, _ = integrate.quad(lambda t: t * density(t), cfg.t_min, cfg.t_max)
    return mean / norm


def test_config_invariants():
    with pytest.raises(ValueError):
        PhaseNoiseConfig(t_c=1e-5, t_min=2e-5, t_max=1e-4)  # t_min > t_c
    with pytest.raises(ValueError):
        PhaseNoiseConfig(t_c=1e-5, t_min=1e-6, t_max=5e-6)  # t_max < t_c


@pytest.mark.parametrize("name", ["t_min", "t_c", "t_max"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_config_refuses_non_finite_times(name, bad):
    times = {"t_min": 1e-6, "t_c": 1e-5, "t_max": 1e-4, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        PhaseNoiseConfig(**times)


def test_dwell_mean_at_a_huge_t_max():
    # t_max / t_c overflows to inf; the tail term of the mean is 0, not nan.
    huge = PhaseNoiseConfig(t_c=1e-5, t_min=1e-6, t_max=1e308)
    assert truncated_dwell_mean(huge) == truncated_dwell_mean(PhaseNoiseConfig(t_c=1e-5, t_min=1e-6, t_max=1.0))


def test_sample_dwell_endpoints():
    assert sample_dwell(CFG, 0.0) == pytest.approx(CFG.t_min, rel=1e-12)
    near_one = sample_dwell(CFG, 1.0 - 1e-12)
    assert near_one == pytest.approx(CFG.t_max, rel=1e-5)
    assert near_one <= CFG.t_max * (1 + 1e-12)


def test_sample_dwell_rejects_bad_u():
    for bad in (-0.1, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError):
            sample_dwell(CFG, bad)
    for bad in (1.0, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^u must lie in \[0, 1\)$"):
            sample_dwell(CFG, np.array([0.2, bad, 0.5]))
    assert sample_dwell(CFG, -0.0) == CFG.t_min
    empty = sample_dwell(CFG, np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_sample_dwell_monotone_in_u():
    u = np.linspace(0.0, 0.999999, 1000)
    t = sample_dwell(CFG, u)
    assert np.all(np.diff(t) >= 0)
    assert t[-1] > t[0]
    assert np.all((t >= CFG.t_min) & (t <= CFG.t_max))


def test_sample_dwell_mean_matches_quadrature():
    oracle = quad_dwell_mean(CFG)
    # frozen reference value of the oracle itself (seconds)
    assert oracle == pytest.approx(1.0995032457e-05, rel=1e-9)
    assert truncated_dwell_mean(CFG) == pytest.approx(oracle, rel=1e-12)
    rng = np.random.default_rng(3)
    sample_mean = float(np.mean(sample_dwell(CFG, rng.random(10 ** 6))))
    assert abs(sample_mean / oracle - 1.0) < 0.005


def test_dwell_histogram_chi_square():
    rng = np.random.default_rng(3)
    draws = sample_dwell(CFG, rng.random(10 ** 6))
    # 50 equal-probability bins via the inverse CDF
    edges = sample_dwell(CFG, np.linspace(0.0, 1.0, 51)[:-1])
    edges = np.append(edges, CFG.t_max)
    counts, _ = np.histogram(draws, bins=edges)
    assert counts.sum() == 10 ** 6
    _, p_value = stats.chisquare(counts)
    assert p_value >= 0.001


def test_jump_phases_uniform_ks():
    n_jumps = 10 ** 5
    duration = 1.05 * n_jumps * truncated_dwell_mean(CFG)
    _, levels = phase_jump_process(CFG, duration, np.random.default_rng(3))
    assert len(levels) - 1 >= n_jumps
    phases = np.mod(levels[1 : n_jumps + 1], 2 * math.pi) / (2 * math.pi)
    assert stats.kstest(phases, "uniform").statistic < 0.01


def test_trace_modulus_and_determinism():
    a = generate_trace(CFG, 2e-3, 1e-7, np.random.default_rng(8))
    b = generate_trace(CFG, 2e-3, 1e-7, np.random.default_rng(8))
    assert np.array_equal(a.samples, b.samples)
    assert len(a.samples) == 20000
    mods = np.abs(a.samples)
    assert np.max(np.abs(mods - 1.0)) < 1e-12
    other = generate_trace(CFG, 2e-3, 1e-7, np.random.default_rng(9))
    assert not np.array_equal(a.samples, other.samples)


def test_trace_intensity_is_flat():
    trace = generate_trace(CFG, 2e-3, 1e-7, np.random.default_rng(2))
    intensity = np.abs(trace.samples) ** 2
    assert np.std(intensity) / np.mean(intensity) < 1e-12
    # hence <I(t)I(t+tau)>/<I>^2 = 1 at any delay
    for k in (0, 37, 500):
        num = np.mean(intensity[: len(intensity) - k] * intensity[k:])
        assert num / np.mean(intensity) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_only_the_run_config_diagnoses_a_short_record():
    # Trace synthesis warns of nothing: a coarse dt or a short record is no
    # error there, and a warning would end a run under -W error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dt in (CFG.t_min / 2, CFG.t_min, T_C):
            generate_trace(CFG, 50 * T_C, dt, np.random.default_rng(0))
    (line,) = build_run_config({"sim.duration": 50 * T_C}).diagnostics()
    assert line.startswith("sim.duration: ")
    assert build_run_config({}).diagnostics() == []
    assert build_run_config({"sim.dt": CFG.t_min}).diagnostics() == []
    assert build_run_config({"sim.duration": 100 * T_C}).diagnostics() == []


def per_sample_field(jump_times, levels, n, dt):
    """Reference: the field evaluated at each sample instant on its own."""
    t = np.arange(n) * dt
    return np.exp(1j * levels[np.searchsorted(jump_times, t, side="right")])


@pytest.mark.parametrize("cfg, duration, dt, seed", [
    (CFG, 2e-2, 1e-7, 0),
    (CFG, 2e-2, 1e-7, 7),
    (CFG, 2e-3, 1e-7, 3),
    (PhaseNoiseConfig(t_c=3e-6, t_min=2e-6, t_max=9e-6), 1.23456789e-3, 1.7e-7, 11),
    (CFG, 2e-2, CFG.t_min, 5),
    (PhaseNoiseConfig(t_c=1e-6, t_min=1e-7, t_max=1e-3), 2e-3, 1e-7, 13),
    # dt = 3 t_min and t_c: many levels hold no sample and are dropped.
    (CFG, 2e-2, 3e-6, 17),
    (CFG, 2e-2, CFG.t_c, 19),
])
def test_trace_is_bitwise_the_per_sample_field(cfg, duration, dt, seed):
    trace = generate_trace(cfg, duration, dt, np.random.default_rng(seed))
    jump_times, levels = phase_jump_process(cfg, duration, np.random.default_rng(seed))
    expected = per_sample_field(jump_times, levels, int(round(duration / dt)), dt)
    assert trace.samples.tobytes() == expected.tobytes()


def test_jump_on_a_sample_instant_takes_effect_there(monkeypatch):
    dt, n = 1e-7, 2000
    # On instants 3 and 9, two jumps between instants 12 and 13 (level 3 is
    # never sampled), and one at the end of the record.
    jump_times = np.array([3, 9, 12.25, 12.5, n]) * dt
    levels = 2.0 * math.pi * np.random.default_rng(5).random(len(jump_times) + 1)
    monkeypatch.setattr("hbtsim.source.phase_jump_process", lambda *args: (jump_times, levels))
    trace = generate_trace(CFG, n * dt, dt, np.random.default_rng(0))
    expected = per_sample_field(jump_times, levels, n, dt)
    assert trace.samples.tobytes() == expected.tobytes()
    assert trace.samples[3] == np.exp(1j * levels[1]) != trace.samples[2]


@pytest.mark.parametrize("dt", [1e-7, 1.7e-7, 3e-7 / 7])
def test_jump_placement_is_the_sample_grid_search(monkeypatch, dt):
    n = 30000
    # On instants k * dt as the grid computes them, and one float either side.
    on = np.arange(1, n + 1, 3) * dt
    jump_times = np.unique(np.concatenate([np.nextafter(on, 0.0), on, np.nextafter(on, np.inf)]))
    jump_times = jump_times[jump_times <= n * dt]
    levels = 2.0 * math.pi * np.random.default_rng(6).random(len(jump_times) + 1)
    monkeypatch.setattr("hbtsim.source.phase_jump_process", lambda *args: (jump_times, levels))
    trace = generate_trace(CFG, n * dt, dt, np.random.default_rng(0))
    first = np.searchsorted(np.arange(n) * dt, jump_times, side="left")
    expected = np.repeat(np.exp(1j * levels), np.diff(first, prepend=0, append=n))
    assert trace.samples.tobytes() == expected.tobytes()


def test_one_sample_trace_is_bitwise_the_per_sample_field():
    trace = generate_trace(CFG, 1e-7, 1e-7, np.random.default_rng(4))
    jump_times, levels = phase_jump_process(CFG, 1e-7, np.random.default_rng(4))
    assert trace.samples.tobytes() == per_sample_field(jump_times, levels, 1, 1e-7).tobytes()


def test_g1_zero_delay_is_exactly_one():
    trace = generate_trace(CFG, 2e-3, 1e-7, np.random.default_rng(0))
    assert first_order_coherence(trace, 0.0) == 1.0 + 0.0j


def test_g1_insufficient_overlap():
    trace = generate_trace(CFG, 2e-3, 1e-7, np.random.default_rng(0))
    with pytest.raises(InsufficientDataError):
        first_order_coherence(trace, 1.5e-3)
    with pytest.raises(ValueError):
        first_order_coherence(trace, -1e-6)


def test_g1_zero_power_window_raises():
    trace = FieldTrace(1e-7, 10, [0], [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (0.0, 2e-7):
            with pytest.raises(InsufficientDataError, match="zero field power"):
                first_order_coherence(trace, tau)


def test_g1_decay_monotone_over_seeds():
    taus = [k * T_C for k in range(6)]
    acc = np.zeros(len(taus))
    for seed in range(50):
        trace = generate_trace(CFG, 2e-2, 1e-7, np.random.default_rng(seed))
        acc += np.array([abs(first_order_coherence(trace, t)) for t in taus])
    acc /= 50
    assert acc[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(acc) <= 0)


def test_g1_long_delay_is_small():
    trace = generate_trace(CFG, 2e-2, 1e-7, np.random.default_rng(9))
    assert abs(first_order_coherence(trace, 5 * T_C)) < 0.05


def test_independent_seeds_are_incoherent():
    def cross_coherence(duration, seed_a, seed_b):
        a = generate_trace(CFG, duration, 1e-7, np.random.default_rng(seed_a))
        b = generate_trace(CFG, duration, 1e-7, np.random.default_rng(seed_b))
        return abs(np.mean(a.samples.conj() * b.samples))

    assert cross_coherence(2000 * T_C, 5, 6) < 0.02
    # and the residual coherence shrinks with record length
    short = np.mean([cross_coherence(500 * T_C, 10 + k, 40 + k) for k in range(5)])
    long = np.mean([cross_coherence(8000 * T_C, 10 + k, 40 + k) for k in range(5)])
    assert long < short


def test_field_trace_validation():
    with pytest.raises(ValueError, match="^dt must be positive and finite$"):
        FieldTrace(0.0, 4, [0], [1.0])
    with pytest.raises(ValueError, match="^a record needs at least one sample$"):
        FieldTrace(1e-7, 0, [], [])
    with pytest.raises(ValueError, match="^samples must be finite$"):
        FieldTrace(1e-7, 2, [0, 1], [1.0, math.nan])
    with pytest.raises(ValueError, match="^expected one field value per run$"):
        FieldTrace(1e-7, 4, [0, 2], [1.0])
    with pytest.raises(ValueError, match="^runs must start at sample 0"):
        FieldTrace(1e-7, 4, [1, 2], [1.0, 1.0])


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)],
                         ids=["nan", "inf", "negative_inf"])
def test_field_trace_checks_run_values(bad):
    with pytest.raises(ValueError, match="^samples must be finite$"):
        FieldTrace(1e-7, 4, np.arange(4), np.array([1.0, bad, bad, 1.0]))
    with pytest.raises(ValueError, match="^samples must be finite$"):
        FieldTrace(1e-7, 4, [0, 1, 3], np.array([1.0, bad, 1.0]))


@pytest.mark.parametrize("samples, starts", [
    ([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, -0.0), 0.0], [0, 1, 2, 3, 5]),
    ([1.0, 1.0, 1.0, 2j, 2j, 1.0], [0, 3, 5]),
    ([0.3 - 0.4j], [0]),
    (np.random.default_rng(27).normal(size=(1000, 2)).view(complex).ravel(), np.arange(1000)),
], ids=["signed_zeros", "equal_neighbours", "one_sample", "every_sample_differs"])
def test_field_trace_from_samples_and_from_runs_agree(samples, starts):
    # One run per sample and the data's own runs expand to the same bytes.
    samples = np.array(samples, dtype=complex)
    per_sample = FieldTrace(1e-7, len(samples), np.arange(len(samples)), samples)
    trace = FieldTrace(1e-7, len(samples), starts, samples[starts])
    for record in (per_sample, trace):
        assert record.samples.tobytes() == samples.tobytes()
        assert len(record) == len(samples)
    assert not trace.samples.flags.writeable and not trace.starts.flags.writeable
    assert not trace.values.flags.writeable


@pytest.mark.parametrize("n, starts", [
    (5, [0]),
    (5, np.arange(5)),
    (200_000, None),
], ids=["one_run", "per_sample", "simulated"])
def test_counts_are_the_run_lengths(n, starts):
    if starts is None:
        trace = generate_trace(CFG, 2e-2, 1e-7, np.random.default_rng(11))
    else:
        trace = FieldTrace(1e-7, n, starts, np.ones(len(starts)))
    assert trace.counts.tobytes() == np.diff(trace.starts, append=n).tobytes()


def test_merge_starts_matches_searchsorted():
    rng = np.random.default_rng(5)
    for case in range(600):
        span = int(rng.integers(1, 60))
        lists = [np.sort(rng.integers(0, span, rng.integers(1, 30))) for _ in range(rng.integers(1, 5))]
        # A list that repeats a point (0), and one-element lists.
        lists[0] = np.maximum(lists[0] - int(rng.integers(0, span)), 0)
        if case % 4 == 0:
            lists[-1] = lists[-1][:1]
        step = 0
        if case % 3 == 0:
            # A grid last: 0, step, ..., b step, then an end at or above
            # every point, as the batch bounds of a window are.
            step, b = int(rng.integers(1, span + 1)), int(rng.integers(0, 6))
            end = max(b * step, *(int(lst[-1]) for lst in lists)) + int(rng.integers(0, 3))
            lists.append(np.append(np.arange(b + 1) * step, end))
        points, runs = merge_starts(*lists, step=step)
        assert np.array_equal(points, np.unique(np.concatenate(lists)))
        assert len(runs) == len(lists)
        for lst, run in zip(lists, runs):
            assert np.array_equal(run, np.searchsorted(lst, points, side="right") - 1)
