import cmath
import math

import numpy as np
import pytest

from poincare_reference import (
    DegenerateGeodesicError,
    L,
    R,
    linear_state,
    pancharatnam_phase,
    polygon_solid_angle,
    to_sphere,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_state(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def projector(v) -> np.ndarray:
    return np.outer(v, v.conj())


def wrap_diff(a: float, b: float, period: float) -> float:
    return abs(math.remainder(a - b, period))


def spherical_triangle_area(v1, v2, v3) -> float:
    """Independent unsigned area oracle: L'Huilier's theorem."""

    def arc(u, w):
        return math.atan2(np.linalg.norm(np.cross(u, w)), float(np.dot(u, w)))

    a, b, c = arc(v2, v3), arc(v3, v1), arc(v1, v2)
    s = 0.5 * (a + b + c)
    t = (
        math.tan(0.5 * s)
        * math.tan(0.5 * (s - a))
        * math.tan(0.5 * (s - b))
        * math.tan(0.5 * (s - c))
    )
    return 4.0 * math.atan(math.sqrt(max(t, 0.0)))


# --- states and projectors ---------------------------------------------------


def test_linear_state_examples():
    assert linear_state(0.0) == pytest.approx([INV_SQRT2, INV_SQRT2], abs=1e-15)
    assert linear_state(math.pi / 2) == pytest.approx([-1j * INV_SQRT2, 1j * INV_SQRT2], abs=1e-15)
    assert linear_state(math.pi) == pytest.approx([-INV_SQRT2, -INV_SQRT2], abs=1e-15)


def test_linear_state_pi_periodic_projector():
    p0 = projector(linear_state(0.7))
    p_pi = projector(linear_state(0.7 + math.pi))
    assert np.max(np.abs(p0 - p_pi)) < 1e-12


def test_linear_state_rejects_nonfinite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            linear_state(bad)


def test_explicit_projector_matrices():
    assert np.allclose(projector(R), [[1, 0], [0, 0]], atol=1e-15)
    assert np.allclose(projector(L), [[0, 0], [0, 1]], atol=1e-15)
    for phi in np.linspace(-3.0, 3.0, 11):
        expected = 0.5 * np.array(
            [[1.0, cmath.exp(-2j * phi)], [cmath.exp(2j * phi), 1.0]]
        )
        assert np.max(np.abs(projector(linear_state(phi)) - expected)) < 1e-12


def test_projector_idempotent_hermitian_1000_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = projector(random_state(rng))
        assert np.max(np.abs(m @ m - m)) < 1e-12
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert abs(np.trace(m) - 1.0) < 1e-12


def test_generated_states_have_unit_norm():
    rng = np.random.default_rng(5)
    for phi in rng.uniform(-10, 10, 200):
        assert abs(np.linalg.norm(linear_state(phi)) ** 2 - 1.0) < 1e-12


# --- sphere map ----------------------------------------------------------------


def test_to_sphere_examples():
    assert tuple(to_sphere(R)) == (0.0, 0.0, 1.0)
    assert to_sphere(linear_state(0.0)) == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    assert to_sphere(linear_state(math.pi / 4)) == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)


def test_to_sphere_equator_s3_exact():
    for phi in np.linspace(-7.0, 7.0, 101):
        assert abs(to_sphere(linear_state(phi))[2]) <= 1e-15


# --- Pancharatnam phase ----------------------------------------------------------


def lune_states(phi3, phi4):
    return [R, linear_state(phi4), L, linear_state(phi3)]


def test_pancharatnam_lune_example():
    assert pancharatnam_phase(lune_states(0.0, math.pi / 2)) == pytest.approx(
        math.pi, abs=1e-12
    )


def test_pancharatnam_retraced_arc_is_zero():
    assert pancharatnam_phase(lune_states(0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_pancharatnam_orthogonal_states_raise():
    with pytest.raises(DegenerateGeodesicError):
        pancharatnam_phase([R, L, linear_state(0.0)])


def test_pancharatnam_needs_a_loop():
    with pytest.raises(ValueError):
        pancharatnam_phase([R, linear_state(0.0)])


def test_pancharatnam_gauge_invariance():
    rng = np.random.default_rng(23)
    for _ in range(200):
        states = [random_state(rng) for _ in range(3)]
        if any(abs(np.vdot(states[k], states[(k + 1) % 3])) < 1e-6 for k in range(3)):
            continue
        base = pancharatnam_phase(states)
        alpha, beta = rng.uniform(0, 2 * math.pi, 2)
        rephased = [states[0] * cmath.exp(1j * alpha), states[1] * cmath.exp(1j * beta), states[2]]
        assert wrap_diff(pancharatnam_phase(rephased), base, 2 * math.pi) < 1e-10


def test_pancharatnam_equals_half_polygon_area():
    # Cross-check against the independent spherical-area computation.
    rng = np.random.default_rng(31)
    for _ in range(200):
        states = [random_state(rng) for _ in range(3)]
        if any(abs(np.vdot(states[k], states[(k + 1) % 3])) < 1e-3 for k in range(3)):
            continue
        phase = pancharatnam_phase(states)
        omega = polygon_solid_angle([to_sphere(s) for s in states])
        assert wrap_diff(phase, omega / 2.0, 2 * math.pi) < 1e-9


# --- polygon solid angle -----------------------------------------------------------


def lune_vertices(phi3, phi4):
    return [
        (0.0, 0.0, 1.0),
        (math.cos(2 * phi4), math.sin(2 * phi4), 0.0),
        (0.0, 0.0, -1.0),
        (math.cos(2 * phi3), math.sin(2 * phi3), 0.0),
    ]


def test_polygon_lune_quarter_turn_is_2pi():
    assert polygon_solid_angle(lune_vertices(0.0, math.pi / 2)) == pytest.approx(
        2 * math.pi, abs=1e-12
    )


def test_polygon_octant_orientation():
    # The x->y->z octant runs counterclockwise seen from outside, which is the
    # negative orientation under the loop convention tied to the Pancharatnam
    # sign (R->4->L->3 positive); magnitude is the familiar pi/2.
    octant = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    omega = polygon_solid_angle(octant)
    assert omega == pytest.approx(-math.pi / 2, abs=1e-12)
    assert polygon_solid_angle(octant[::-1]) == pytest.approx(math.pi / 2, abs=1e-12)


def test_polygon_matches_lhuilier_oracle():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 200:
        vs = rng.normal(size=(3, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        # Skip thin triangles where both routes lose precision.
        if abs(np.linalg.det(vs)) < 1e-2:
            continue
        area = spherical_triangle_area(*vs)
        ccw = 1.0 if np.linalg.det(vs) > 0 else -1.0
        assert polygon_solid_angle(vs) == pytest.approx(-ccw * area, abs=1e-10)
        checked += 1


def test_polygon_lune_identity_100_pairs():
    rng = np.random.default_rng(53)
    for _ in range(100):
        phi3, phi4 = rng.uniform(-math.pi, math.pi, 2)
        if abs(math.remainder(phi4 - phi3, math.pi / 2)) < 1e-6:
            continue  # stay away from straight-through/retraced lunes
        omega = polygon_solid_angle(lune_vertices(phi3, phi4))
        assert wrap_diff(omega, 4.0 * (phi4 - phi3), 4 * math.pi) < 1e-9


def test_polygon_is_twice_the_phase_of_random_quadrilaterals():
    # About a quarter of random four-state loops cross themselves.
    rng = np.random.default_rng(0)
    for _ in range(1000):
        states = [random_state(rng) for _ in range(4)]
        omega = polygon_solid_angle([to_sphere(s) for s in states])
        assert wrap_diff(omega, 2.0 * pancharatnam_phase(states), 4 * math.pi) < 1e-9


def test_polygon_reversal_negates():
    rng = np.random.default_rng(67)
    for _ in range(100):
        vs = rng.normal(size=(4, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        try:
            forward = polygon_solid_angle(vs)
        except DegenerateGeodesicError:
            continue
        assert polygon_solid_angle(vs[::-1]) == pytest.approx(-forward, abs=1e-10)


def test_pancharatnam_reversal_negates():
    rng = np.random.default_rng(71)
    for _ in range(100):
        states = [random_state(rng) for _ in range(4)]
        try:
            forward = pancharatnam_phase(states)
        except DegenerateGeodesicError:
            continue
        back = pancharatnam_phase(states[::-1])
        assert wrap_diff(back, -forward, 2 * math.pi) < 1e-10


def simple_cap_polygon(rng, n=5):
    """Random simple spherical polygon: jittered azimuth fan in a cap."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    u = np.cross(axis, [1.0, 0.3, -0.2])
    u /= np.linalg.norm(u)
    w = np.cross(axis, u)
    azimuths = 2 * math.pi * np.arange(n) / n + rng.uniform(-0.4, 0.4, n)
    polars = rng.uniform(0.3, 1.0, n)
    return [
        math.cos(t) * axis + math.sin(t) * (math.cos(a) * u + math.sin(a) * w)
        for a, t in zip(azimuths, polars)
    ]


def test_polygon_fan_decomposition():
    # The signed area of a simple pentagon equals the sum of its fan
    # triangles, concave or not.
    rng = np.random.default_rng(83)
    checked = 0
    while checked < 50:
        points = simple_cap_polygon(rng)
        try:
            total = polygon_solid_angle(points)
            fan = sum(
                polygon_solid_angle([points[0], points[k], points[k + 1]])
                for k in range(1, 4)
            )
        except DegenerateGeodesicError:
            continue
        assert total == pytest.approx(fan, abs=1e-9)
        checked += 1


def test_polygon_degenerate_vertices_raise():
    a = (1, 0, 0)
    with pytest.raises(DegenerateGeodesicError):
        polygon_solid_angle([a, (-1, 0, 0), (0, 0, 1)])
    with pytest.raises(DegenerateGeodesicError):
        polygon_solid_angle([a, a, (0, 0, 1)])
    with pytest.raises(ValueError):
        polygon_solid_angle([a, (0, 1, 0)])


def test_polygon_range():
    rng = np.random.default_rng(73)
    for _ in range(200):
        vs = rng.normal(size=(3, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        omega = polygon_solid_angle(vs)
        assert -2 * math.pi < omega <= 2 * math.pi
