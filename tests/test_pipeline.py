import math
import sys

import numpy as np
import pytest

from hbtsim.bench import BenchConfig, mean_intensity
from hbtsim import pipeline
from hbtsim.correlate import SCAN_KINDS, g2_cross, scan
from hbtsim.pipeline import detector_streams, estimate_point, simulate_detectors
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
    cross = SCAN_KINDS.index("cross")
    assert est.g2[cross, 0] == pytest.approx(expected_value, rel=1e-12)
    assert est.g2_err[cross, 0] == pytest.approx(expected_err, rel=1e-12)
    assert est.taus == (0.0, 1e-5)
    assert est.bench == BENCH
    assert est.bench.phi4 - est.bench.phi3 == pytest.approx(math.pi / 2)
    assert est.g2.shape == est.g2_err.shape == (len(SCAN_KINDS), len(taus))
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
    # One repeat is its own scan, bit for bit, where the repeat average's
    # formula would underflow or overflow the square of an error.
    taus = [0.0, 2e-6, 1e-5]
    est = estimate_point(SRC, BENCH, 2e-3, 1e-7, seed=5, taus=taus, point=4)
    values, errors = scan(simulate_detectors(SRC, BENCH, 2e-3, 1e-7, seed=5, point=4), taus)
    assert (est.g2.tobytes(), est.g2_err.tobytes()) == (values.tobytes(), errors.tobytes())


def combined_by_formula(values, errors):
    """The repeat average of one cell in Python floats."""
    r = len(values)
    return sum(values) / r, float(np.sqrt(sum(e ** 2 for e in errors))) / r


@pytest.mark.parametrize("values, errors", [
    ([1.1, 0.9], [0.06744313017236006, 0.003]),
    ([1.1, 0.9, 1.0 + 2.0 ** -52], [0.06744313017236006, 0.05, 0.045]),
], ids=["2", "3"])
def test_repeat_average_is_the_bits_of_the_python_float_formula(monkeypatch, values, errors):
    # Python's ** squares 0.06744313017236006 through libm pow, one ulp
    # below the e * e of np.square and np.power(e, 2.0), and here the sum's
    # root keeps that ulp.
    scans = iter([(np.full((3, 2), v), np.full((3, 2), e)) for v, e in zip(values, errors)])
    monkeypatch.setattr(pipeline, "scan", lambda traces, taus: next(scans))
    est = estimate_point(SRC, BENCH, 2e-4, 1e-7, seed=5, taus=[0.0, 1e-7], repeats=len(values))
    value, error = combined_by_formula(values, errors)
    assert est.g2.tobytes() == np.full((3, 2), value).tobytes()
    assert est.g2_err.tobytes() == np.full((3, 2), error).tobytes()
