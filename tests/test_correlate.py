import math
import tracemalloc

import numpy as np
import pytest

from hbtsim.bench import BenchConfig, DetectorTraces
from hbtsim.correlate import (
    CorrelationResult,
    first_order_coherence,
    g2_cross,
    g2_delay_scan,
    g2_self,
)
from hbtsim.errors import InsufficientDataError, OffGridDelayError
from hbtsim.pipeline import simulate_detectors
from hbtsim.source import FieldTrace, default_source_config

SRC = default_source_config()
T_C = SRC.t_c
CONSTRUCTIVE = BenchConfig(phi3=0.0, phi4=math.pi / 2)


def constant_traces(c3=0.1, c4=0.7, n=2000, dt=1e-7) -> DetectorTraces:
    return DetectorTraces(dt=dt, i3=np.full(n, c3), i4=np.full(n, c4))


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
    vals = np.array([pt.g2_self4[0].value for pt in zero_delay_sweep.points])
    errs = np.array([pt.g2_self4[0].std_error for pt in zero_delay_sweep.points])
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
    swapped = DetectorTraces(
        dt=pipeline_traces.dt, i3=pipeline_traces.i4, i4=pipeline_traces.i3
    )
    b = g2_cross(swapped, tau)
    assert abs(a.value - b.value) <= 2.0 * math.hypot(a.std_error, b.std_error)


def test_scale_invariance(pipeline_traces):
    base = g2_cross(pipeline_traces, 0.0).value
    for factor in (1e-6, 3.7, 1e6):
        scaled = DetectorTraces(
            dt=pipeline_traces.dt,
            i3=pipeline_traces.i3 * factor,
            i4=pipeline_traces.i4,
        )
        assert abs(g2_cross(scaled, 0.0).value - base) < 1e-12


def test_values_live_in_phase_noise_band(zero_delay_sweep):
    # pure phase noise keeps g2 inside [0.5, 1.5] (thermal light would reach 2)
    for pt in zero_delay_sweep.points:
        for series in (pt.g2_cross, pt.g2_self3, pt.g2_self4):
            res = series[0]
            assert 0.5 - 5 * res.std_error <= res.value <= 1.5 + 5 * res.std_error


@pytest.mark.parametrize("estimate", [
    lambda tr: g2_cross(tr, 0.0),
    lambda tr: g2_self(tr, 3, 0.0),
    lambda tr: g2_self(tr, 4, 0.0),
], ids=["cross", "self3", "self4"])
def test_g2_allocates_nothing_of_the_window_size(pipeline_traces, estimate):
    assert len(pipeline_traces) == 200_000
    estimate(pipeline_traces)  # builds the series and the work buffers
    tracemalloc.start()
    try:
        estimate(pipeline_traces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(pipeline_traces) // 4  # a quarter of one float64 window


def test_a_record_estimates_from_one_window_sized_allocation(pipeline_traces):
    # The series and both work buffers share one block, freed as one chunk
    # when the record goes, so that the allocator keeps it for the next one.
    tr = pipeline_traces
    fresh = DetectorTraces.from_runs(tr.dt, tr.n, tr.starts, tr.values)
    tracemalloc.start()
    try:
        g2_cross(fresh, 0.0)
        g2_self(fresh, 3, 0.0)
        g2_self(fresh, 4, 0.0)
        live = tracemalloc.take_snapshot().traces
    finally:
        tracemalloc.stop()
    assert [t.size for t in live if t.size >= 8 * tr.n] == [4 * 8 * tr.n]


def test_std_error_scales_with_batch_count():
    # fixed batch size, 4x the batches -> half the standard error
    rng = np.random.default_rng(4)
    m = 500
    ratios = []
    for _ in range(40):
        x20 = rng.exponential(1.0, size=m * 20)
        y20 = rng.exponential(1.0, size=m * 20)
        x80 = rng.exponential(1.0, size=m * 80)
        y80 = rng.exponential(1.0, size=m * 80)
        e20 = g2_cross(DetectorTraces(dt=1.0, i3=x20, i4=y20), 0.0, n_batches=20).std_error
        e80 = g2_cross(DetectorTraces(dt=1.0, i3=x80, i4=y80), 0.0, n_batches=80).std_error
        ratios.append(e20 / e80)
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
], ids=["negative", "nan", "off_grid", "beyond_half"])
def test_g1_and_g2_share_the_lag_rule(tau, error):
    field = FieldTrace(dt=1e-7, samples=np.ones(100))
    for estimate in (
        lambda: first_order_coherence(field, tau),
        lambda: g2_cross(constant_traces(n=100), tau),
    ):
        with pytest.raises(error) as info:
            estimate()
        assert type(info.value) is error


def test_g1_and_g2_accept_half_the_record():
    assert first_order_coherence(FieldTrace(dt=1e-7, samples=np.ones(100)), 50e-7) == 1.0
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
