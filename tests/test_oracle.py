import cmath
import math
import sys

import numpy as np
import pytest

from hbtsim.bench import BenchConfig, amplitudes
from hbtsim.correlate import first_order_coherence
from hbtsim.oracle import (
    audit_survivor_sum,
    no_jump_probability,
    predict_g2,
    predict_g2_cross,
    predict_g2_self,
    solid_angle_of_setup,
    term_audit,
    visibility,
)
from hbtsim.source import PhaseNoiseConfig, default_source_config, generate_trace
from poincare_reference import L, R, linear_state, polygon_solid_angle, to_sphere

SRC = default_source_config()


def wrap_diff(a, b, period):
    return abs(math.remainder(a - b, period))


def test_solid_angle_examples():
    assert solid_angle_of_setup(0.0, math.pi / 2) == pytest.approx(2 * math.pi, abs=1e-12)
    assert solid_angle_of_setup(0.8, 0.8) == 0.0
    for _ in range(10):
        assert -2 * math.pi < solid_angle_of_setup(0.0, np.random.uniform(-9, 9)) <= 2 * math.pi


@pytest.mark.parametrize("phi3, phi4", [(1e308, -1e308), (-1e308, 1e308), (0.0, 1e308), (math.inf, 0.0), (0.0, math.nan)])
def test_solid_angle_refuses_a_lune_that_is_not_finite(phi3, phi4):
    with pytest.raises(ValueError, match=r"^4\*\(phi4 - phi3\) must be finite for phi3, phi4$"):
        solid_angle_of_setup(phi3, phi4)


def test_solid_angle_matches_polygon_100_pairs():
    # Both the closed form and the bench's amplitude table against the sphere:
    # the table's geometric phase arg(-d3 conj(d4)) - phi_d, with
    # d_a = conj(A_a1) A_a2, is half the loop's solid angle.
    rng = np.random.default_rng(9)
    for _ in range(100):
        phi3, phi4, phi_d = rng.uniform(-math.pi, math.pi, 3)
        if abs(math.remainder(phi4 - phi3, math.pi / 2)) < 1e-6:
            continue
        loop = [to_sphere(R), to_sphere(linear_state(phi4)), to_sphere(L), to_sphere(linear_state(phi3))]
        sphere = polygon_solid_angle(loop)
        assert wrap_diff(solid_angle_of_setup(phi3, phi4), sphere, 4 * math.pi) < 1e-9
        table = amplitudes(BenchConfig(phi3, phi4, phi_d, balance=rng.uniform(0.2, 5.0)))
        d3, d4 = (row[0].conjugate() * row[1] for row in table)
        assert wrap_diff(cmath.phase(-d3 * d4.conjugate()) - phi_d, sphere / 2, 2 * math.pi) < 1e-12


def test_predict_cross_examples():
    assert predict_g2_cross(0.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert predict_g2_cross(0.0, 2 * math.pi) == pytest.approx(1.5, abs=1e-12)
    assert predict_g2_cross(math.pi, 0.0) == pytest.approx(1.5, abs=1e-12)


def test_predict_self_examples():
    # 1 + V/2 with V = 4b/(1+b)^2; no phase enters a self correlation
    assert predict_g2_self() == 1.5
    assert predict_g2_self(1.0) == 1.5
    assert predict_g2_self(4.0) == pytest.approx(1.32, abs=1e-15)
    assert predict_g2_self(0.25) == pytest.approx(1.32, abs=1e-15)
    with pytest.raises(ValueError):
        predict_g2_self(0.0)


def test_predictions_stay_in_band():
    for balance in np.geomspace(1e-3, 1e3, 29):
        assert 1.0 <= predict_g2_self(balance) <= 1.5
    for phi_d in np.linspace(-7, 7, 29):
        for omega in np.linspace(-2 * math.pi, 2 * math.pi, 29):
            assert 0.5 <= predict_g2_cross(phi_d, omega) <= 1.5


def test_fringe_is_pi_periodic_in_polariser_angle():
    rng = np.random.default_rng(13)
    for phi in rng.uniform(-3, 3, 50):
        a = predict_g2_cross(0.0, solid_angle_of_setup(0.0, phi))
        b = predict_g2_cross(0.0, solid_angle_of_setup(0.0, phi + math.pi))
        assert abs(a - b) < 1e-12


def test_cross_plus_self_is_two_at_zero_solid_angle():
    # the beam-splitter sign flip: where phi_d + omega/2 is a whole number of
    # turns the cross fringe sits at 1 - V/2, opposite the self value 1 + V/2
    for balance in (0.25, 1.0, 4.0):
        for turns in range(-3, 4):
            phi_d = 2 * math.pi * turns
            assert predict_g2_cross(phi_d, 0.0, balance) + predict_g2_self(balance) == pytest.approx(
                2.0, abs=1e-12
            )


def test_audit_counts_and_exact_zeros():
    rng = np.random.default_rng(17)
    for _ in range(50):
        phi3, phi4, phi_d = rng.uniform(-math.pi, math.pi, 3)
        terms = term_audit(BenchConfig(phi3, phi4, phi_d))
        assert len(terms) == 16
        zeros = [t for t in terms if t.value == 0]
        assert len(zeros) == 10
        assert all(t.kind == "vanishing" for t in zeros)
        survivors = [t for t in terms if t.value != 0]
        assert len(survivors) == 6
        assert sum(1 for t in survivors if t.kind == "direct") == 4
        assert sum(1 for t in survivors if t.kind == "geometric") == 2


def test_audit_sum_reproduces_prediction():
    rng = np.random.default_rng(19)
    for balance in (1.0, 0.25, 4.0):
        for _ in range(50):
            phi3, phi4, phi_d = rng.uniform(-math.pi, math.pi, 3)
            terms = term_audit(BenchConfig(phi3, phi4, phi_d, balance))
            expected = predict_g2_cross(phi_d, solid_angle_of_setup(phi3, phi4), balance)
            assert abs(audit_survivor_sum(terms) - expected) <= 1e-12
            assert abs(sum(t.value for t in terms).imag) <= 1e-15


def test_audit_direct_terms_have_phase_exactly_zero():
    # conj(A_aj) A_aj / c_a is real, so a product of two is too.
    for bench in (BenchConfig(0.0, 0.5 * math.pi), *random_benches(500, 23)):
        direct = [t for t in term_audit(bench) if t.kind == "direct"]
        assert len(direct) == 4
        assert all(t.phase == 0.0 and t.value.imag == 0.0 and t.value.real > 0.0 for t in direct), bench


def test_audit_is_finite_at_every_finite_balance():
    # Each detector is normalised by its own c_a, so no product overflows.
    for balance in (5e-324, 1e-300, 1e154, 1.35e154, 1e300, 1.7e308, sys.float_info.max):
        bench = BenchConfig(0.3, 1.2, 0.7, balance)
        terms = term_audit(bench)
        assert all(math.isfinite(t.magnitude) and math.isfinite(t.phase) for t in terms)
        assert audit_survivor_sum(terms) == pytest.approx(predict_g2(bench)["cross"], abs=1e-15)


def test_audit_direct_terms_are_quarters():
    terms = term_audit(BenchConfig(0.3, 1.2, 0.7))
    direct = [t for t in terms if t.kind == "direct"]
    for t in direct:
        assert t.value == pytest.approx(0.25, abs=1e-12)
        assert t.sign == 1
        assert t.magnitude == pytest.approx(0.25, abs=1e-12)


def test_audit_geometric_terms_match_projector_chain():
    # Independent dense evaluation: the geometric coefficient is
    # eps3*eps4 * e^{i phi_d} * Tr(P_R P3 P_L P4).
    rng = np.random.default_rng(29)
    p_r = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    p_l = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    for _ in range(50):
        phi3, phi4, phi_d = rng.uniform(-math.pi, math.pi, 3)
        k3, k4 = linear_state(phi3), linear_state(phi4)
        p3, p4 = np.outer(k3, k3.conj()), np.outer(k4, k4.conj())
        chain = complex(np.trace(p_r @ p3 @ p_l @ p4))
        expected = -cmath.exp(1j * phi_d) * chain
        terms = {t.d3 + t.d4: t for t in term_audit(BenchConfig(phi3, phi4, phi_d))}
        fwd = terms[(1, 2, 2, 1)]
        rev = terms[(2, 1, 1, 2)]
        assert abs(fwd.value - expected) < 1e-12
        assert abs(rev.value - expected.conjugate()) < 1e-12
        # equal magnitudes 1/4, phases +-(phi_d + omega/2)
        assert fwd.magnitude == pytest.approx(0.25, abs=1e-12)
        assert rev.magnitude == pytest.approx(0.25, abs=1e-12)
        target = phi_d + 0.5 * solid_angle_of_setup(phi3, phi4)
        assert wrap_diff(fwd.phase, target, 2 * math.pi) < 1e-9
        assert wrap_diff(rev.phase, -target, 2 * math.pi) < 1e-9
        assert fwd.sign == rev.sign == -1


def random_sources(count, seed):
    """Sources with t_c from 1 ns to 1 ms and t_min, t_max up to three
    decades from it."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        t_c = 10 ** rng.uniform(-9, -3)
        yield PhaseNoiseConfig(t_c=t_c, t_min=t_c * 10 ** rng.uniform(-3, -0.01),
                               t_max=t_c * 10 ** rng.uniform(0.01, 3))


def test_no_jump_probability_is_one_at_zero_delay():
    assert all(no_jump_probability(source, 0.0) == 1.0 for source in random_sources(20000, 31))


def test_no_jump_probability_vanishes_from_t_max():
    for source in random_sources(200, 37):
        t_max = source.t_max
        for tau in (t_max, math.nextafter(t_max, math.inf), 2 * t_max, 1e300, math.inf):
            assert no_jump_probability(source, tau) == 0.0
        assert no_jump_probability(source, math.nextafter(t_max, 0.0)) >= 0.0


def test_no_jump_probability_does_not_increase():
    for source in (SRC, *random_sources(300, 41)):
        p = np.array([no_jump_probability(source, tau) for tau in np.linspace(0.0, 1.05 * source.t_max, 500)])
        # 1 - F rounds to about one ulp of 1 where P itself is tiny.
        assert np.diff(p).max() <= (0.0 if source is SRC else 2.3e-16), source
        assert p.min() >= 0.0


def test_no_jump_probability_is_the_tail_integral_of_the_dwell_survival():
    # Cox's form (1/mu) int_tau^inf S(u) du, with S the survival of the
    # truncated exponential and mu = int_0^inf S, integrated numerically in
    # units of t_c.
    from scipy.integrate import quad

    def survival(x, a, b):
        if x < a:
            return 1.0
        return (math.exp(-x) - math.exp(-b)) / (math.exp(-a) - math.exp(-b)) if x < b else 0.0

    for source in (SRC, *random_sources(20, 43)):
        a, b = source.t_min / source.t_c, source.t_max / source.t_c

        def tail(x):
            breaks = [x, *(p for p in (a,) if p > x), b]
            return sum(quad(survival, lo, hi, args=(a, b), epsabs=0.0, epsrel=1e-12)[0]
                       for lo, hi in zip(breaks, breaks[1:]))

        mu = tail(0.0)
        for x in np.linspace(0.0, b, 23):
            assert no_jump_probability(source, x * source.t_c) == pytest.approx(tail(x) / mu, abs=1e-12)


def test_field_coherence_follows_the_no_jump_probability():
    # E[g1(tau)] = P(tau): a jump draws a fresh uniform phase.  z of the
    # mean over 20 records against its standard error.
    taus = [k * 1e-7 for k in (0, 20, 50, 100, 200, 400, 700, 1000)]
    g1 = np.array([[first_order_coherence(generate_trace(SRC, 2e-2, 1e-7, np.random.default_rng(seed)), tau).real
                    for tau in taus] for seed in range(20)])
    assert np.all(g1[:, 0] == 1.0)
    z = (g1[:, 1:].mean(axis=0) - [no_jump_probability(SRC, tau) for tau in taus[1:]]) / (
        g1[:, 1:].std(axis=0, ddof=1) / math.sqrt(len(g1)))
    assert np.abs(z).max() < 4.0, z


def random_benches(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        phi3, phi34, phi_d = rng.uniform(-math.pi, math.pi, 3)
        yield BenchConfig(phi3, phi3 + phi34, phi_d, math.exp(rng.uniform(math.log(0.01), math.log(100.0))))


def test_predict_g2_agrees_with_the_papers_closed_forms():
    # The harmonic form of the amplitude table against the paper's
    # 1 - V cos(phi_d + omega/2)/2 and 1 + V/2, scaled to 1 + p2 (g2(0) - 1),
    # on the sweep grid and over 20000 benches (angles in +-7 rad, balance
    # e^{+-5}, half at random p2).  The two round differently; 1.6e-15 is
    # the largest difference seen.
    rng = np.random.default_rng(47)
    grid = [(BenchConfig(0.0, phi34), 1.0) for phi34 in np.linspace(0.0, 2 * math.pi, 13)]
    benches = [(BenchConfig(*rng.uniform(-7.0, 7.0, 3), math.exp(rng.uniform(-5.0, 5.0))),
                rng.uniform() if i % 2 else 1.0) for i in range(20000)]
    for bench, p2 in (*grid, *benches):
        cross = predict_g2_cross(bench.phi_d, solid_angle_of_setup(bench.phi3, bench.phi4), bench.balance)
        self_ = predict_g2_self(bench.balance)
        expected = {"cross": 1.0 + p2 * (cross - 1.0), "self3": 1.0 + p2 * (self_ - 1.0), "self4": 1.0 + p2 * (self_ - 1.0)}
        got = predict_g2(bench, p2)
        assert max(abs(got[kind] - expected[kind]) for kind in expected) <= 4e-15, (bench, p2)


def test_predict_g2_over_an_array_of_p2_is_the_scalar_calls_bit_for_bit():
    p2s = np.array([no_jump_probability(SRC, tau) ** 2 for tau in np.linspace(0.0, 5e-5, 11)])
    for bench in random_benches(50, 61):
        together = predict_g2(bench, p2s)
        for kind, values in together.items():
            assert values.tolist() == [predict_g2(bench, p2)[kind] for p2 in p2s.tolist()]


def test_predict_g2_is_the_moment_formula_of_the_amplitudes():
    # G_ab = <I_a><I_b> + p2 sum_{j != k} conj(A_aj) A_ak conj(A_bk) A_bj:
    # the direct terms do not decay, the interference terms carry P^2.
    rng = np.random.default_rng(53)
    detector = {"cross": (0, 1), "self3": (0, 0), "self4": (1, 1)}
    for bench in random_benches(200, 59):
        p2 = rng.uniform()
        table = amplitudes(bench)
        power = (abs(table) ** 2).sum(axis=1)
        for kind, value in predict_g2(bench, p2).items():
            a, b = detector[kind]
            beat = sum(table[a, j].conjugate() * table[a, k] * table[b, k].conjugate() * table[b, j]
                       for j, k in ((0, 1), (1, 0)))
            assert value == pytest.approx(1.0 + p2 * beat.real / (power[a] * power[b]), abs=1e-12)
    assert predict_g2(BenchConfig(0.0, 0.3), 0.0) == dict.fromkeys(("cross", "self3", "self4"), 1.0)


def test_visibility_of_a_balance_whose_square_overflows():
    # (1 + b)^2 is above the largest float from b = 1.35e154; V(b) = V(1/b).
    for balance in (1.35e154, 1e300, 1.7e308):
        assert visibility(balance) == pytest.approx(4.0 / balance, rel=1e-15)
    assert predict_g2(BenchConfig(0.0, 0.0, balance=1e300)) == dict.fromkeys(("cross", "self3", "self4"), 1.0)
