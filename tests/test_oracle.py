import cmath
import math

import numpy as np
import pytest

from hbtsim.bench import BenchConfig
from hbtsim.oracle import (
    audit_survivor_sum,
    predict_g2_cross,
    predict_g2_self,
    solid_angle_of_setup,
    term_audit,
)
from hbtsim.poincare import (
    LEFT_CIRCULAR,
    RIGHT_CIRCULAR,
    linear_state,
    polygon_solid_angle,
    projector_of,
    to_sphere,
)


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
    rng = np.random.default_rng(9)
    for _ in range(100):
        phi3, phi4 = rng.uniform(-math.pi, math.pi, 2)
        if abs(math.remainder(phi4 - phi3, math.pi / 2)) < 1e-6:
            continue
        loop = [
            to_sphere(RIGHT_CIRCULAR),
            to_sphere(linear_state(phi4)),
            to_sphere(LEFT_CIRCULAR),
            to_sphere(linear_state(phi3)),
        ]
        omega = solid_angle_of_setup(phi3, phi4)
        assert wrap_diff(omega, polygon_solid_angle(loop), 4 * math.pi) < 1e-9


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
        p3 = projector_of(linear_state(phi3)).matrix
        p4 = projector_of(linear_state(phi4)).matrix
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
