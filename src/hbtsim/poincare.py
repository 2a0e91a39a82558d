"""Polarization states, projectors and Poincaré-sphere geometry.

States live in the helicity basis (|R>, |L>).  A linear polariser at angle
phi transmits |phi> = (e^{-i phi}|R> + e^{+i phi}|L>)/sqrt(2), which sits on
the sphere's equator at azimuth 2*phi; |R> and |L> sit at the poles.  The
geometric (Pancharatnam) phase of a closed loop of states equals half the
signed solid angle its sphere image encloses, and both quantities are
computed here by independent routes:

* ``pancharatnam_phase``  -- minus the argument of the cyclic product of
  state overlaps (gauge invariant);
* ``polygon_solid_angle`` -- a fan of signed geodesic triangles.

The orientation convention is fixed so the polariser loop R -> 4 -> L -> 3
has solid angle +4*(phi4 - phi3) (mod 4*pi), i.e. exactly twice its
Pancharatnam phase.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateGeodesicError

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi

# Degenerate-geodesic threshold: comfortably above double-precision noise,
# far below any physically meaningful overlap.
_DEGENERATE_TOL = 1e-9


@dataclass(frozen=True)
class PolarizationState:
    """Complex 2-vector (a_r, a_l) in the helicity basis; unit norm by convention."""

    a_r: complex
    a_l: complex

    def __post_init__(self):
        a_r = complex(self.a_r)
        a_l = complex(self.a_l)
        if not (cmath.isfinite(a_r) and cmath.isfinite(a_l)):
            raise ValueError("state amplitudes must be finite")
        object.__setattr__(self, "a_r", a_r)
        object.__setattr__(self, "a_l", a_l)

    @property
    def norm(self) -> float:
        return math.hypot(abs(self.a_r), abs(self.a_l))

    def as_vector(self) -> np.ndarray:
        return np.array([self.a_r, self.a_l], dtype=complex)


@dataclass(frozen=True, eq=False)
class Projector:
    """2x2 Hermitian idempotent rank-one matrix |K><K|."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("projector must be a 2x2 matrix")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("projector must be Hermitian")
        if np.max(np.abs(m @ m - m)) > 1e-12:
            raise ValueError("projector must be idempotent")
        if abs(np.trace(m) - 1.0) > 1e-12:
            raise ValueError("projector must have unit trace (rank one)")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SpherePoint:
    """Unit Stokes vector (s1, s2, s3) on the Poincaré sphere."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        r = math.sqrt(self.s1 ** 2 + self.s2 ** 2 + self.s3 ** 2)
        if not math.isfinite(r) or abs(r - 1.0) > 1e-9:
            raise ValueError("sphere point must have unit norm")

    def as_array(self) -> np.ndarray:
        return np.array([self.s1, self.s2, self.s3], dtype=float)


RIGHT_CIRCULAR = PolarizationState(1.0 + 0.0j, 0.0j)
LEFT_CIRCULAR = PolarizationState(0.0j, 1.0 + 0.0j)


def linear_state(phi: float) -> PolarizationState:
    """Linear polarization at polariser angle ``phi`` (radians).

    Returns (e^{-i phi}, e^{+i phi})/sqrt(2) in the helicity basis.  phi and
    phi + pi give the same projector (a global sign).
    """
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    c, s = math.cos(phi), math.sin(phi)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return PolarizationState(complex(c, -s) * inv_sqrt2, complex(c, s) * inv_sqrt2)


def _check_normalized(state: PolarizationState) -> None:
    if abs(state.norm - 1.0) > 1e-9:
        raise ValueError(f"state norm {state.norm!r} deviates from 1 by more than 1e-9")


def projector_of(state: PolarizationState) -> Projector:
    """Outer product |K><K| of a normalized state.

    For ``linear_state(phi)`` the off-diagonal entries are e^{∓2i phi}/2.
    """
    _check_normalized(state)
    v = state.as_vector()
    m = np.outer(v, v.conj())
    return Projector(0.5 * (m + m.conj().T))  # exact Hermiticity, real diagonal


def to_sphere(state: PolarizationState) -> SpherePoint:
    """Stokes vector of a normalized state: s3 = |a_r|^2 - |a_l|^2,
    s1 + i s2 = 2 * conj(a_r) * a_l.

    |R> maps to the north pole (0, 0, 1); linear_state(phi) maps to the
    equator at azimuth 2*phi.
    """
    _check_normalized(state)
    cross = state.a_r.conjugate() * state.a_l
    return SpherePoint(
        2.0 * cross.real,
        2.0 * cross.imag,
        abs(state.a_r) ** 2 - abs(state.a_l) ** 2,
    )


def state_overlap(u: PolarizationState, v: PolarizationState) -> complex:
    """Inner product <u|v>."""
    return u.a_r.conjugate() * v.a_r + u.a_l.conjugate() * v.a_l


def _wrap_pm_pi(x: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    r = math.remainder(x, _TWO_PI)
    if r <= -math.pi:
        r += _TWO_PI
    return r


def _wrap_pm_two_pi(x: float) -> float:
    """Reduce a solid angle to (-2*pi, 2*pi] (mod 4*pi)."""
    r = math.remainder(x, _FOUR_PI)
    if r <= -_TWO_PI:
        r += _FOUR_PI
    return r


def pancharatnam_phase(states: Sequence[PolarizationState]) -> float:
    """Geometric phase of a closed loop of polarization states, in (-pi, pi].

    Computed as -arg of the cyclic overlap product <s1|s2><s2|s3>...<sn|s1>,
    which is invariant under independent global rephasings of every state.
    Consecutive (cyclically) orthogonal states have no connecting geodesic
    and raise DegenerateGeodesicError.
    """
    n = len(states)
    if n < 3:
        raise ValueError("a closed loop needs at least 3 states")
    total = 0.0
    for k in range(n):
        z = state_overlap(states[k], states[(k + 1) % n])
        if abs(z) <= _DEGENERATE_TOL:
            raise DegenerateGeodesicError(
                f"states {k} and {(k + 1) % n} are (nearly) orthogonal"
            )
        total += math.atan2(z.imag, z.real)
    return _wrap_pm_pi(-total)


def polygon_solid_angle(vertices: Sequence[SpherePoint]) -> float:
    """Signed solid angle of a closed geodesic polygon, in (-2*pi, 2*pi].

    Edges follow the shorter great-circle arc between consecutive vertices
    (closing last -> first).  The result is the area the loop encloses, each
    region counted as often as the loop winds around it (mod 4*pi), so a
    self-intersecting loop is measured as well as a simple one.  It is the
    sum of a fan of signed geodesic triangles (apex, v_k, v_k+1), each
    2 * atan2(a . (b x c), 1 + a . b + b . c + c . a) (Van Oosterom and
    Strackee, IEEE Trans. Biomed. Eng. 30, 125, 1983), from an apex
    antipodal to no vertex, where every triangle is defined.  The sign
    convention is the one under which the polariser loop north ->
    equator(2*phi4) -> south -> equator(2*phi3) measures +4*(phi4 - phi3)
    (mod 4*pi), i.e. twice the Pancharatnam phase of the matching state
    loop; loops that run counterclockwise seen from outside the sphere come
    out negative.  Reversing the vertex order negates the result (except
    exactly at the |Omega| = 2*pi boundary, where the two orientations
    coincide mod 4*pi).

    Consecutive vertices that are identical or antipodal (within 1e-9) leave
    the edge undefined and raise DegenerateGeodesicError.
    """
    n = len(vertices)
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    vs = np.array([p.as_array() for p in vertices])
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    nxt = np.roll(vs, -1, axis=0)
    for k in range(n):
        a, b = vs[k], nxt[k]
        if np.linalg.norm(a - b) < _DEGENERATE_TOL:
            raise DegenerateGeodesicError(f"vertices {k} and {(k + 1) % n} coincide")
        if np.linalg.norm(a + b) < _DEGENERATE_TOL:
            raise DegenerateGeodesicError(f"vertices {k} and {(k + 1) % n} are antipodal")
    # The apex is the one of the 6 face and 8 corner directions of a cube
    # farthest from every vertex's antipode.  They are at least 54.7 degrees
    # apart, so an antipode lies within 27.3 degrees of at most one of them,
    # and for up to 13 vertices the apex is at least that far from each.
    # Built per call: at import the table would add to the resident memory
    # of every process that loads the package.
    apexes = np.vstack([
        np.eye(3),
        -np.eye(3),
        np.array(list(itertools.product((-1.0, 1.0), repeat=3))) / math.sqrt(3.0),
    ])
    apex = apexes[(apexes @ vs.T).min(axis=1).argmax()]
    to_apex = vs @ apex
    triple = np.cross(vs, nxt) @ apex
    cosine = 1.0 + to_apex + (vs * nxt).sum(axis=1) + np.roll(to_apex, -1)
    # The triangles' sign is the opposite of this module's orientation.
    return _wrap_pm_two_pi(-2.0 * float(np.arctan2(triple, cosine).sum()))
