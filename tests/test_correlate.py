import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hbtsim.bench import BenchConfig, DetectorTraces, mean_intensity
from hbtsim.correlate import (
    N_BATCHES,
    SCAN_KINDS,
    CorrelationResult,
    _segments,
    delay_lag,
    first_order_coherence,
    g2_cross,
    g2_delay_scan,
    g2_self,
    scan,
)
from hbtsim.errors import InsufficientDataError, OffGridDelayError
from hbtsim.pipeline import estimate_point, simulate_detectors
from hbtsim.source import FieldTrace, default_source_config

SRC = default_source_config()
T_C = SRC.t_c
CONSTRUCTIVE = BenchConfig(phi3=0.0, phi4=math.pi / 2)


def constant_traces(c3=0.1, c4=0.7, n=2000, dt=1e-7) -> DetectorTraces:
    return DetectorTraces(dt, n, [0], [[c3, c4]])


def sample_traces(i3, i4, dt=1.0) -> DetectorTraces:
    """Per-sample intensities, one run per sample."""
    return DetectorTraces(dt, len(i3), np.arange(len(i3)), np.stack((i3, i4), axis=1))


@pytest.fixture(scope="module")
def pipeline_traces():
    return simulate_detectors(SRC, CONSTRUCTIVE, 2e-2, 1e-7, seed=12345)


def test_constant_input_is_exactly_one():
    tr = constant_traces()
    for res in (g2_cross(tr, 0.0), g2_self(tr, 3, 0.0), g2_self(tr, 4, 5e-7)):
        assert res.value == 1.0
        assert res.std_error == 0.0
    for res in g2_delay_scan(tr, "cross", [0.0, 1e-7, 5e-7]):
        assert res.value == 1.0


def test_pipeline_cross_correlation_fringe_top(pipeline_traces):
    res = g2_cross(pipeline_traces, 0.0)
    assert abs(res.value - 1.5) <= 3 * res.std_error


def test_pipeline_cross_correlation_decoheres(pipeline_traces):
    res = g2_cross(pipeline_traces, 5 * T_C)
    assert abs(res.value - 1.0) <= 3 * res.std_error


def test_pipeline_self_correlation_height(pipeline_traces):
    for which in (3, 4):
        res = g2_self(pipeline_traces, which, 0.0)
        assert abs(res.value - 1.5) <= 3 * res.std_error


def test_self_correlation_ignores_polariser_angle(zero_delay_sweep):
    self4 = SCAN_KINDS.index("self4")
    vals = np.array([pt.g2[self4, 0] for pt in zero_delay_sweep.points])
    errs = np.array([pt.g2_err[self4, 0] for pt in zero_delay_sweep.points])
    assert vals.max() - vals.min() <= 4.0 * errs.mean()


def test_delay_scan_consistency(pipeline_traces):
    direct = g2_cross(pipeline_traces, 2 * T_C)
    scanned = g2_delay_scan(pipeline_traces, "cross", [2 * T_C])
    assert len(scanned) == 1
    assert scanned[0].value == direct.value
    assert scanned[0].std_error == direct.std_error
    with pytest.raises(ValueError):
        g2_delay_scan(pipeline_traces, "both", [0.0])


def test_fringe_amplitude_decays_with_delay():
    taus = [0.0, 0.5 * T_C, T_C, 2 * T_C]
    acc = np.zeros(len(taus))
    for seed in range(20):
        traces = simulate_detectors(SRC, CONSTRUCTIVE, 2e-2, 1e-7, seed=seed)
        acc += np.array([abs(g2_cross(traces, t).value - 1.0) for t in taus])
    acc /= 20
    assert np.all(np.diff(acc) < 0)


def test_symmetry_under_role_swap(pipeline_traces):
    tau = 2 * T_C
    a = g2_cross(pipeline_traces, tau)
    tr = pipeline_traces
    swapped = DetectorTraces(tr.dt, tr.n, tr.starts, tr.values[:, ::-1])
    b = g2_cross(swapped, tau)
    assert abs(a.value - b.value) <= 2.0 * math.hypot(a.std_error, b.std_error)


def test_scale_invariance(pipeline_traces):
    base = g2_cross(pipeline_traces, 0.0).value
    for factor in (1e-6, 3.7, 1e6):
        tr = pipeline_traces
        scaled = DetectorTraces(tr.dt, tr.n, tr.starts, tr.values * [factor, 1.0])
        assert abs(g2_cross(scaled, 0.0).value - base) < 1e-12


@pytest.mark.parametrize("k", [-1000, -500, -1, 1, 500, 1000])
def test_power_of_two_units_keep_every_bit(pipeline_traces, k):
    # g2 reads each detector in units of the power of two at its peak, so a
    # record in units 2**k apart gives the same bits; the mean intensities
    # are those times 2**k, exactly.
    tr = pipeline_traces
    scaled = DetectorTraces(tr.dt, tr.n, tr.starts, np.ldexp(tr.values, k))
    taus = [0.0, 1e-7, 2 * T_C, 5 * T_C]
    assert bits(scan(scaled, taus)) == bits(scan(tr, taus))
    for which in (3, 4):
        assert mean_intensity(scaled, which) == math.ldexp(mean_intensity(tr, which), k)


def test_values_live_in_phase_noise_band(zero_delay_sweep):
    # pure phase noise keeps g2 inside [0.5, 1.5] (thermal light would reach 2)
    for pt in zero_delay_sweep.points:
        assert pt.g2.shape == pt.g2_err.shape == (len(SCAN_KINDS), 1)
        assert np.all((0.5 - 5 * pt.g2_err <= pt.g2) & (pt.g2 <= 1.5 + 5 * pt.g2_err))


@pytest.mark.parametrize("estimate", [
    lambda tr: g2_cross(tr, 0.0),
    lambda tr: g2_self(tr, 3, 0.0),
    lambda tr: g2_self(tr, 4, 0.0),
], ids=["cross", "self3", "self4"])
def test_g2_allocates_nothing_of_the_window_size(pipeline_traces, estimate):
    assert len(pipeline_traces) == 200_000
    estimate(pipeline_traces)  # one-time allocations
    tracemalloc.start()
    try:
        estimate(pipeline_traces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(pipeline_traces) // 4  # a quarter of one float64 window


def test_a_record_estimates_without_a_window_sized_allocation(pipeline_traces):
    # The estimators read only the runs.
    tr = pipeline_traces
    fresh = DetectorTraces(tr.dt, tr.n, tr.starts, tr.values)
    tracemalloc.start()
    try:
        g2_cross(fresh, 0.0)
        g2_self(fresh, 3, 0.0)
        g2_self(fresh, 4, 0.0)
        mean_intensity(fresh, 3)
        mean_intensity(fresh, 4)
        live = tracemalloc.take_snapshot().traces
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [t.size for t in live if t.size >= 8 * tr.n] == []
    assert peak < 8 * tr.n


def test_estimate_point_peaks_below_ten_bytes_per_sample():
    n = round(2e-2 / 1e-7)
    taus = [0.0, 5e-6, 5e-5]
    estimate = lambda: estimate_point(SRC, CONSTRUCTIVE, 2e-2, 1e-7, seed=3, taus=taus)
    estimate()  # one-time allocations
    tracemalloc.start()
    try:
        estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * n


# --- the run form against the per-sample estimators -----------------------------


def per_sample_g2(x, y, k, n_batches=N_BATCHES):
    """(value, std_error) of the per-sample g2 that the run form replaced."""
    n = len(x) - k
    xw, yw = x[:n], y[k : k + n]
    m = n // n_batches

    def normalized_product_mean(x, y):
        mx = x.mean(axis=-1, keepdims=True)
        my = y.mean(axis=-1, keepdims=True)
        return 1.0 + ((x - mx) * (y - my)).mean(axis=-1) / (mx * my)[..., 0]

    batches = [a[: m * n_batches].reshape(n_batches, m) for a in (xw, yw)]
    batch_vals = normalized_product_mean(*batches)
    return normalized_product_mean(xw, yw), np.std(batch_vals, ddof=1) / math.sqrt(n_batches)


def per_sample_g1(e, k):
    n = len(e) - k
    return np.mean(e[:n].conj() * e[k : k + n]) / np.mean((e[:n].conj() * e[:n]).real)


def assert_close(got, want):
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


def random_runs(n, runs, seed):
    rng = np.random.default_rng(seed)
    starts = np.concatenate(([0], np.sort(rng.choice(np.arange(1, n), runs - 1, replace=False))))
    return starts, rng.exponential(1.0, (runs, 2))


def run_records():
    """Random runs over an even and an odd record length, every sample its
    own run, one run, and runs holding signed zeros."""
    for n, runs in ((1000, 37), (1013, 120)):
        starts, values = random_runs(n, runs, seed=n)
        yield pytest.param(DetectorTraces(1.0, n, starts, values), id=f"runs{n}")
    rng = np.random.default_rng(2)
    yield pytest.param(sample_traces(rng.exponential(1.0, 997), rng.exponential(1.0, 997)), id="sample_runs")
    yield pytest.param(DetectorTraces(1.0, 1000, [0], [[0.3, 0.8]]), id="one_run")
    starts, values = random_runs(1000, 200, seed=3)
    values[::7] = 0.0
    values[3::7] = -0.0
    values[4::7] = 0.0  # runs of -0.0 and 0.0 side by side
    yield pytest.param(DetectorTraces(1.0, 1000, starts, values), id="signed_zeros")


def per_sample_segments(starts, n, k, n_batches):
    """The segments of lag ``k`` by their definition: the groups of equal
    (run at t, run at t + k, batch) over t in [0, n), the tail being batch
    ``n_batches``.  Returns their lengths, both runs and the first group of
    each batch and of the tail."""
    t = np.arange(n)
    triples = np.stack((
        np.searchsorted(starts, t, side="right") - 1,
        np.searchsorted(starts, t + k, side="right") - 1,
        np.minimum(t // (n // n_batches), n_batches),
    ))
    first = np.flatnonzero(np.any(triples[:, 1:] != triples[:, :-1], axis=0)) + 1
    first = np.concatenate(([0], first))
    xrun, yrun, batch = triples[:, first]
    return np.diff(first, append=n), xrun, yrun, np.searchsorted(batch, np.arange(n_batches + 1))


@pytest.mark.parametrize("size, starts, k, n_batches", [
    (100, [0, 10, 55, 70, 71, 90, 99], 30, 4),
    (100, [0, 2, 3, 5, 9, 40, 61], 10, 3),
    (104, [0, 18, 49, 54, 85, 90, 103], 13, 5),
    (100, [0, 7, 19, 20, 33, 64, 80, 81], 20, 8),
    (100, [0, 13, 27, 50, 51, 77], 50, 5),
    (50, [0, 4, 9, 11, 30, 44], 3, 20),
    (50, [0], 7, 4),
    (60, list(range(60)), 11, 7),
], ids=["clipped", "runs_below_k", "bounds_on_starts", "batches_divide", "half", "long_tail", "one_run", "per_sample"])
def test_lag_segments_are_the_per_sample_groups(size, starts, k, n_batches):
    # "bounds_on_starts" (m = 18, n = 91) has starts on the bounds 18 and
    # 54, and shifted starts (49, 85 and 103, less 13) on 36, 72 and 90.
    starts = DetectorTraces(1.0, size, starts, np.ones((len(starts), 2))).starts
    for lag in (0, k):
        for batches in (n_batches, 1):
            n = size - lag
            length, runs, edges = _segments(starts, n, lag, batches)
            want_length, *want_runs, want_edges = per_sample_segments(starts, n, lag, batches)
            assert length.dtype == float and np.array_equal(length, want_length), (lag, batches)
            assert all(np.array_equal(got, want) for got, want in zip(runs, want_runs)), (lag, batches)
            assert np.array_equal(edges, want_edges), (lag, batches)


@pytest.mark.parametrize("traces", run_records())
def test_run_form_matches_the_per_sample_estimators(traces):
    n = traces.n
    counts = traces.counts
    # 0, 1, half the record (2k == n for an even n) and run lengths.
    lags = sorted({0, 1, n // 2, *(int(c) for c in counts[:: max(1, len(counts) // 3)] if 2 * c <= n)})
    i3, i4 = traces.i3, traces.i4
    assert any((n - k) % N_BATCHES for k in lags)  # a tail in the window, in no batch
    for k in lags:
        for got, (x, y) in (
            (g2_cross(traces, float(k)), (i3, i4)),
            (g2_self(traces, 3, float(k)), (i3, i3)),
            (g2_self(traces, 4, float(k)), (i4, i4)),
        ):
            value, std_error = per_sample_g2(x, y, k)
            assert_close(got.value, value)
            assert_close(got.std_error, std_error)
            assert got.n_samples == n - k
    assert_close(mean_intensity(traces, 3), np.mean(i3))
    assert_close(mean_intensity(traces, 4), np.mean(i4))


@pytest.mark.parametrize("traces", run_records())
def test_scan_matches_the_per_sample_estimators(traces):
    n = traces.n
    lags = [0, 1, n // 4, n // 2]  # n // 2 clips the shifted starts at 0
    columns = {"cross": (traces.i3, traces.i4), "self3": (traces.i3, traces.i3), "self4": (traces.i4, traces.i4)}
    values, errors = scan(traces, [float(k) for k in lags])
    assert values.shape == errors.shape == (len(SCAN_KINDS), len(lags))
    for kind, kind_values, kind_errors in zip(SCAN_KINDS, values, errors):
        for k, value, std_error in zip(lags, kind_values, kind_errors):
            want_value, want_error = per_sample_g2(*columns[kind], k)
            assert_close(value, want_value)
            assert_close(std_error, want_error)


def small_correlation_records():
    """Intensities 1e6 (1 + 1e-4 noise), whose g2 - 1 is about 1e-8 and
    less, and intensities 1 (1 + 0.1 noise) with the samples [400, 800)
    dimmed by 1e-6: two batches at lag 0 whose means sit about 1e7 times
    their own spread from the window mean."""
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        starts, _ = random_runs(4000, 400, seed)
        values = 1e6 * (1.0 + 1e-4 * rng.standard_normal((400, 2)))
        yield pytest.param(DetectorTraces(1.0, 4000, starts, values), id=f"large_mean{seed}")
        values = 1.0 + 0.1 * rng.standard_normal((400, 2))
        values[(starts >= 400) & (starts < 800)] *= 1e-6
        yield pytest.param(DetectorTraces(1.0, 4000, starts, values), id=f"dim_batches{seed}")


@pytest.mark.parametrize("traces", small_correlation_records())
def test_scan_keeps_small_correlations_against_large_means(traces):
    # Sums that cancel lose these digits: uncentred products, or a batch's
    # centred sum derived from the window-centred one when the batch means
    # sit far from the window means.  The per-sample estimator centres every
    # sample on its own batch mean.
    n = traces.n
    columns = {"cross": (traces.i3, traces.i4), "self3": (traces.i3, traces.i3), "self4": (traces.i4, traces.i4)}
    lags = [0, 1, n // 4, n // 2]
    values, errors = scan(traces, [float(k) for k in lags])
    for kind, kind_values, kind_errors in zip(SCAN_KINDS, values, errors):
        for k, got_value, got_error in zip(lags, kind_values, kind_errors):
            value, std_error = per_sample_g2(*columns[kind], k)
            assert abs(got_value - value) <= 2 * np.spacing(1.0), (kind, k)
            assert abs(got_error - std_error) <= 1e-12 * std_error, (kind, k)


def dim_record(s):
    """Runs at 0, 50, 100 and 1000 of (s, s), (2 s, 3 s), (1, 1) and (0.5, 2):
    at a small ``s`` the first batches are far dimmer than the window, and
    the product of their means is below the float range from s = 1e-162."""
    return DetectorTraces(1.0, 2000, [0, 50, 100, 1000], [[s, s], [2 * s, 3 * s], [1.0, 1.0], [0.5, 2.0]])


def test_dim_batches_keep_their_digits():
    # A dim batch is summed again about its own means in units of their
    # powers of two, so its products never leave the float range.
    taus = [0.0, 1.0, 30.0, 99.0, 500.0, 1000.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = scan(dim_record(2.0 ** -300), taus)
        for e in (400, 600, 800, 1000, 1010):
            assert bits(scan(dim_record(2.0 ** -e), taus)) == bits(want), e
        for s in (1e-100, 1e-160, 1e-170, 1e-200, 1e-305):
            for got, ref in zip(scan(dim_record(s), taus), want):
                assert np.all(np.abs(got - ref) <= 1e-14 * ref), s


def bits(arrays):
    """The bytes of each row of a scan's values and errors, in that order."""
    return [row.tobytes() for array in arrays for row in array]


def result_bits(results):
    """``bits`` of one kind's ``CorrelationResult``s."""
    return bits(np.array([[[r.value for r in results]], [[r.std_error for r in results]]]))


@pytest.mark.parametrize("traces", run_records())
def test_delay_scan_results_are_the_bits_of_scan(traces):
    taus = [0.0, 1.0, float(traces.n // 3), float(traces.n // 2)]
    for kind in SCAN_KINDS:
        results = g2_delay_scan(traces, kind, taus)
        assert result_bits(results) == bits(scan(traces, taus, (kind,)))
        assert [(r.tau, r.n_samples) for r in results] == [(tau, traces.n - tau) for tau in taus]


@pytest.mark.parametrize("traces", run_records())
def test_scan_kind_is_the_same_bits_alone_or_shared(traces):
    taus = [0.0, 1.0, float(traces.n // 3), float(traces.n // 2)]
    alone = {kind: bits(scan(traces, taus, (kind,))) for kind in SCAN_KINDS}
    for size in (2, 3):
        for kinds in itertools.permutations(SCAN_KINDS, size):
            values, errors = scan(traces, taus, kinds)
            for i, kind in enumerate(kinds):
                assert bits((values[i:i + 1], errors[i:i + 1])) == alone[kind], (kinds, kind)
    assert alone["self4"] == result_bits([g2_self(traces, 4, tau) for tau in taus])


@pytest.mark.parametrize("traces", run_records())
def test_every_delay_of_a_scan_is_the_bits_of_its_own_scan(traces):
    # The lags of a scan share one array of batch values and one std over
    # it, and its kinds share one block of batch arithmetic.
    n = traces.n
    rng = np.random.default_rng(n + len(traces.starts))
    for draw in range(3):
        lags = [0, n // 2, *(int(k) for k in rng.integers(0, n // 2 + 1, 5))]
        rng.shuffle(lags)
        taus = [float(k) for k in lags]
        for size in (1, 2, 3):
            for kinds in itertools.combinations(SCAN_KINDS, size):
                alone = [np.concatenate(arrays, axis=1) for arrays in zip(*(scan(traces, [tau], kinds) for tau in taus))]
                assert bits(scan(traces, taus, kinds)) == bits(alone), (draw, kinds)


def test_scan_of_no_delays_or_no_kinds():
    tr = constant_traces()
    assert [a.shape for a in scan(tr, [])] == [(len(SCAN_KINDS), 0)] * 2
    assert [a.shape for a in scan(tr, [0.0, 1e-7], ())] == [(0, 2)] * 2


@pytest.mark.parametrize("call, error, message", [
    (lambda tr: scan(tr, [0.0], ("cross", "both")), ValueError,
     "unknown scan kind 'both'; expected one of ('cross', 'self3', 'self4')"),
    (lambda tr: scan(tr, [0.0, 1.5e-7]), OffGridDelayError, "tau=1.5e-07 is not an integer multiple of dt=1e-07"),
    (lambda tr: scan(tr, [0.0, 60e-7]), InsufficientDataError,
     "tau=6e-06 exceeds half the record length 9.999999999999999e-06"),
    (lambda tr: scan(DetectorTraces(1e-7, 1000, [0, 100, 160], [[0.5, 0.5], [0.0, 0.5], [0.5, 0.5]]), [0.0], ("self4", "self3")),
     InsufficientDataError, "zero mean intensity in a batch of the overlap window"),
], ids=["unknown_kind", "off_grid", "beyond_half", "dark_batch"])
def test_scan_refuses_what_the_one_kind_estimators_refuse(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call(constant_traces(n=100))
    assert type(info.value) is error
    assert str(info.value) == message


def test_scan_temporaries_are_those_of_one_lag(pipeline_traces):
    # Lags are scanned one at a time: eleven lags peak no higher than the
    # one with the most segments, up to the results.
    taus = [float(t) for t in np.arange(11) * 5e-6]
    peaks = []
    for grid in ([taus[-1]], taus):
        scan(pipeline_traces, grid)  # one-time allocations
        tracemalloc.start()
        try:
            scan(pipeline_traces, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


@pytest.mark.parametrize("runs", [1, 40, 1000])
def test_g1_on_runs_matches_the_per_sample_estimator(runs):
    starts, values = random_runs(1000, runs, seed=runs)
    phases = np.exp(2j * math.pi * values[:, 0]) * values[:, 1]
    trace = FieldTrace(1.0, 1000, starts, phases)
    assert first_order_coherence(trace, 0.0) == 1.0 + 0.0j
    for k in (1, 333, 500, *(int(c) for c in trace.counts[:2] if 2 * c <= 1000)):
        assert_close(first_order_coherence(trace, float(k)), per_sample_g1(trace.samples, k))


def test_dark_batch_raises_before_dividing():
    # i3 is dark on [100, 160), which covers the batch [100, 150) at tau = 0
    traces = DetectorTraces(1.0, 1000, [0, 100, 160], [[0.5, 0.5], [0.0, 0.5], [0.5, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for estimate in (lambda: g2_cross(traces, 0.0), lambda: g2_self(traces, 3, 0.0)):
            with pytest.raises(InsufficientDataError, match="zero mean intensity"):
                estimate()
        # At tau = 3 the batches cover [0, 980) and the tail [980, 997),
        # which counts towards the window only; i3 is dark from 983 on.
        tail = DetectorTraces(1.0, 1000, [0, 983], [[0.5, 0.5], [0.0, 0.5]])
        got = g2_cross(tail, 3.0)
        value, std_error = per_sample_g2(tail.i3, tail.i4, 3)
        assert_close(got.value, value)
        assert got.std_error == std_error == 0.0


def test_std_error_scales_with_record_length():
    # the N_BATCHES batches of a record 4x longer -> half the standard error
    rng = np.random.default_rng(4)
    n = 500 * N_BATCHES
    ratios = []
    for _ in range(40):
        x1, y1 = rng.exponential(1.0, size=(2, n))
        x4, y4 = rng.exponential(1.0, size=(2, 4 * n))
        e1 = g2_cross(sample_traces(x1, y1), 0.0).std_error
        e4 = g2_cross(sample_traces(x4, y4), 0.0).std_error
        ratios.append(e1 / e4)
    assert abs(np.mean(ratios) / 2.0 - 1.0) < 0.2


def test_delay_validation():
    tr = constant_traces(n=100)
    with pytest.raises(OffGridDelayError):
        g2_cross(tr, 1.5e-7)
    with pytest.raises(ValueError):
        g2_cross(tr, -1e-7)
    with pytest.raises(InsufficientDataError):
        g2_cross(tr, 60e-7)  # beyond half the record
    with pytest.raises(ValueError):
        g2_self(tr, 2, 0.0)


@pytest.mark.parametrize("tau, error", [
    (-1e-7, ValueError),
    (math.nan, ValueError),
    (1.5e-7, OffGridDelayError),
    (51e-7, InsufficientDataError),  # beyond half the record
    (1e308, InsufficientDataError),  # tau/dt overflows a float
], ids=["negative", "nan", "off_grid", "beyond_half", "overflowing_lag"])
def test_g1_and_g2_share_the_lag_rule(tau, error):
    field = FieldTrace(1e-7, 100, [0], [1.0])
    for estimate in (
        lambda: first_order_coherence(field, tau),
        lambda: g2_cross(constant_traces(n=100), tau),
    ):
        with pytest.raises(error) as info:
            estimate()
        assert type(info.value) is error


def test_decimal_delays_on_a_long_record_are_on_the_grid():
    # Typed in decimal, tau = k*dt is off by about tau * 1e-16, more than
    # 1e-9 dt once k passes 1e7; half a sample off the grid is still refused.
    for k in range(12_345_678, 12_347_678):
        assert delay_lag(float("%.10g" % (k * 1e-7)), 1e-7, 10**8) == k
        with pytest.raises(OffGridDelayError):
            delay_lag((k + 0.5) * 1e-7, 1e-7, 10**8)


def test_g1_and_g2_accept_half_the_record():
    assert first_order_coherence(FieldTrace(1e-7, 100, [0], [1.0]), 50e-7) == 1.0
    assert g2_cross(constant_traces(n=100), 50e-7).value == 1.0


def test_short_window_is_rejected():
    tr = constant_traces(n=25)
    assert g2_cross(tr, 0.0).value == 1.0  # 25 >= 20 batches
    with pytest.raises(InsufficientDataError):
        g2_cross(tr, 10e-7)  # overlap 15 < 20 batches
    with pytest.raises(InsufficientDataError):
        g2_cross(constant_traces(n=10), 0.0)


def test_result_validation():
    with pytest.raises(ValueError):
        CorrelationResult(value=1.0, tau=0.0, n_samples=0, std_error=0.0)
    with pytest.raises(ValueError):
        CorrelationResult(value=1.0, tau=0.0, n_samples=5, std_error=-1.0)
