import math
import sys

import numpy as np
import pytest

from hbtsim.bench import BenchConfig, mean_intensity
from hbtsim.correlate import SCAN_KINDS, CorrelationResult, g2_cross, scan
from hbtsim.pipeline import _combine, detector_streams, estimate_point, simulate_detectors
from hbtsim.source import default_source_config, generate_trace

SRC = default_source_config()
BENCH = BenchConfig(phi3=0.0, phi4=math.pi / 2)


def test_detector_streams_deterministic_and_distinct():
    a1, a2 = detector_streams(7, repeat=0, point=0)
    b1, b2 = detector_streams(7, repeat=0, point=0)
    assert np.array_equal(a1.random(8), b1.random(8))
    assert np.array_equal(a2.random(8), b2.random(8))
    # the two sources, other repeats and other points all differ
    fresh = lambda **kw: detector_streams(7, **kw)[0].random(8)
    draws = [
        fresh(repeat=0, point=0),
        detector_streams(7, repeat=0, point=0)[1].random(8),
        fresh(repeat=1, point=0),
        fresh(repeat=0, point=1),
    ]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_simulate_detectors_deterministic():
    a = simulate_detectors(SRC, BENCH, 2e-4, 1e-7, seed=3)
    b = simulate_detectors(SRC, BENCH, 2e-4, 1e-7, seed=3)
    assert np.array_equal(a.i3, b.i3)
    assert np.array_equal(a.i4, b.i4)
    c = simulate_detectors(SRC, BENCH, 2e-4, 1e-7, seed=4)
    assert not np.array_equal(a.i3, c.i3)


def test_repeat_r_of_seed_s_is_repeat_0_of_seed_s_plus_r():
    # The master entropy is seed + repeat, so seeds of a multi-seed study
    # must lie at least sim.repeats apart.
    a = simulate_detectors(SRC, BENCH, 2e-4, 1e-7, seed=7, repeat=1, point=3)
    b = simulate_detectors(SRC, BENCH, 2e-4, 1e-7, seed=8, repeat=0, point=3)
    assert a.starts.tobytes() == b.starts.tobytes()
    assert a.values.tobytes() == b.values.tobytes()


def test_sources_within_a_run_are_independent():
    rng1, rng2 = detector_streams(11)
    e1 = generate_trace(SRC, 2e-2, 1e-7, rng1)
    e2 = generate_trace(SRC, 2e-2, 1e-7, rng2)
    assert abs(np.mean(e1.samples.conj() * e2.samples)) < 0.05


def test_estimate_point_combines_repeats():
    taus = [0.0, 1e-5]
    est = estimate_point(SRC, BENCH, 2e-3, 1e-7, seed=5, taus=taus, repeats=3)
    singles = [
        g2_cross(simulate_detectors(SRC, BENCH, 2e-3, 1e-7, seed=5, repeat=r), 0.0)
        for r in range(3)
    ]
    expected_value = np.mean([s.value for s in singles])
    expected_err = math.sqrt(sum(s.std_error ** 2 for s in singles)) / 3
    assert est.g2["cross"][0].value == pytest.approx(expected_value, rel=1e-12)
    assert est.g2["cross"][0].std_error == pytest.approx(expected_err, rel=1e-12)
    assert est.g2["cross"][0].n_samples == sum(s.n_samples for s in singles)
    assert est.taus == (0.0, 1e-5)
    assert est.bench == BENCH
    assert est.bench.phi4 - est.bench.phi3 == pytest.approx(math.pi / 2)
    assert list(est.g2) == list(SCAN_KINDS)
    with pytest.raises(ValueError):
        estimate_point(SRC, BENCH, 2e-3, 1e-7, seed=5, taus=taus, repeats=0)


def test_repeat_mean_intensity_is_np_mean_and_stays_finite():
    # The repeats' mean intensities are np.mean's bits, and stay finite where
    # their sum would not: five repeats at the largest balance.
    est = estimate_point(SRC, BENCH, 2e-4, 1e-7, seed=5, taus=[0.0], repeats=5)
    records = [simulate_detectors(SRC, BENCH, 2e-4, 1e-7, seed=5, repeat=r) for r in range(5)]
    assert est.i3_mean == float(np.mean([mean_intensity(tr, 3) for tr in records]))
    assert est.i4_mean == float(np.mean([mean_intensity(tr, 4) for tr in records]))
    bright = BenchConfig(phi3=0.0, phi4=math.pi / 2, balance=sys.float_info.max)
    est = estimate_point(SRC, bright, 2e-4, 1e-7, seed=5, taus=[0.0], repeats=5)
    assert est.i3_mean == pytest.approx(sys.float_info.max / 4.0, rel=1e-12)
    assert est.i4_mean == pytest.approx(sys.float_info.max / 4.0, rel=1e-12)


def test_one_repeat_keeps_its_scan_results():
    taus = [0.0, 2e-6, 1e-5]
    est = estimate_point(SRC, BENCH, 2e-3, 1e-7, seed=5, taus=taus, point=4)
    scans = scan(simulate_detectors(SRC, BENCH, 2e-3, 1e-7, seed=5, point=4), taus)
    bits = lambda results: [(r.value.hex(), r.std_error.hex(), r.tau, r.n_samples) for r in results]
    for got, want in zip((est.g2["cross"], est.g2["self3"], est.g2["self4"]), scans):
        assert bits(got) == bits(want)


def combined_by_formula(results):
    """The repeat average of ``_combine``, spelled out for any count."""
    r = len(results)
    return (
        sum(x.value for x in results) / r,
        float(np.sqrt(sum(x.std_error ** 2 for x in results))) / r,
        sum(x.n_samples for x in results),
    )


@pytest.mark.parametrize("std_error", [0.0, 2.0 ** -511, 1e-3, 0.7, 2.0 ** 512 * (1 - 2.0 ** -53)])
def test_combine_of_one_repeat_is_the_formula(std_error):
    one = CorrelationResult(value=1.25, tau=3e-7, n_samples=1000, std_error=std_error)
    got = _combine((one,))
    value, err, n_samples = combined_by_formula([one])
    assert (got.value.hex(), got.std_error.hex(), got.n_samples, got.tau) == (value.hex(), err.hex(), n_samples, one.tau)


def test_combine_of_one_repeat_keeps_an_error_whose_square_overflows():
    one = CorrelationResult(value=1.25, tau=0.0, n_samples=1000, std_error=1e300)
    with pytest.raises(OverflowError):
        combined_by_formula([one])
    assert _combine((one,)).std_error == 1e300
