"""Poincaré-sphere geometry, the reference the bench's amplitude table is held to.

States are complex 2-vectors (a_r, a_l) in the helicity basis.  A linear
polariser at angle phi transmits |phi> = (e^{-i phi}|R> + e^{+i phi}|L>)/sqrt(2),
which sits on the sphere's equator at azimuth 2*phi; |R> and |L> sit at the
poles.  The geometric (Pancharatnam) phase of a closed loop of states equals
half the signed solid angle its sphere image encloses, and the two are
computed by independent routes: ``pancharatnam_phase`` is minus the argument
of the cyclic product of state overlaps (gauge invariant), and
``polygon_solid_angle`` sums a fan of signed geodesic triangles.  The
orientation is fixed so the polariser loop R -> 4 -> L -> 3 has solid angle
+4*(phi4 - phi3) (mod 4*pi), exactly twice its Pancharatnam phase.
"""

import itertools
import math

import numpy as np

DEGENERATE_TOL = 1e-9  # far above double-precision noise, far below any meaningful overlap

R = np.array([1.0, 0.0], dtype=complex)
L = np.array([0.0, 1.0], dtype=complex)


class DegenerateGeodesicError(ValueError):
    """Consecutive states or points are orthogonal, identical or antipodal:
    the geodesic joining them, and so the geometric phase, is undefined."""


def linear_state(phi):
    """(e^{-i phi}, e^{+i phi})/sqrt(2); phi and phi + pi give the same projector."""
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    c, s = math.cos(phi), math.sin(phi)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return np.array([complex(c, -s) * inv_sqrt2, complex(c, s) * inv_sqrt2])


def to_sphere(v):
    """Stokes vector: s1 + i s2 = 2 conj(a_r) a_l, s3 = |a_r|^2 - |a_l|^2."""
    cross = v[0].conjugate() * v[1]
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(v[0]) ** 2 - abs(v[1]) ** 2])


def wrap(x, period):
    """Reduce ``x`` to (-period/2, period/2]."""
    r = math.remainder(x, period)
    return r + period if r <= -0.5 * period else r


def pancharatnam_phase(states):
    """-arg <s1|s2><s2|s3>...<sn|s1>, in (-pi, pi]."""
    n = len(states)
    if n < 3:
        raise ValueError("a closed loop needs at least 3 states")
    total = 0.0
    for k in range(n):
        u, v = states[k], states[(k + 1) % n]
        z = u[0].conjugate() * v[0] + u[1].conjugate() * v[1]  # <u|v>; np.vdot rounds differently
        if abs(z) <= DEGENERATE_TOL:
            raise DegenerateGeodesicError(f"states {k} and {(k + 1) % n} are (nearly) orthogonal")
        total += math.atan2(z.imag, z.real)
    return wrap(-total, 2.0 * math.pi)


def polygon_solid_angle(vertices):
    """Signed solid angle of a closed loop of shorter geodesic arcs, in (-2*pi, 2*pi].

    Each region counts as often as the loop winds round it (mod 4*pi).  It is
    a fan of signed triangles (apex, v_k, v_k+1), each
    2 * atan2(a . (b x c), 1 + a . b + b . c + c . a) (Van Oosterom and
    Strackee, IEEE Trans. Biomed. Eng. 30, 125, 1983), from an apex
    antipodal to no vertex.  Loops counterclockwise seen from outside the
    sphere come out negative; reversing a loop negates it.
    """
    n = len(vertices)
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    vs = np.array(vertices, dtype=float)
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    nxt = np.roll(vs, -1, axis=0)
    for k in range(n):
        if np.linalg.norm(vs[k] - nxt[k]) < DEGENERATE_TOL:
            raise DegenerateGeodesicError(f"vertices {k} and {(k + 1) % n} coincide")
        if np.linalg.norm(vs[k] + nxt[k]) < DEGENERATE_TOL:
            raise DegenerateGeodesicError(f"vertices {k} and {(k + 1) % n} are antipodal")
    # Of the 14 face and corner directions of a cube, at least 54.7 degrees apart,
    # the one farthest from every antipode is, for up to 13 vertices, 27.3 or more from each.
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=3))) / math.sqrt(3.0)
    apexes = np.vstack([np.eye(3), -np.eye(3), corners])
    apex = apexes[(apexes @ vs.T).min(axis=1).argmax()]
    to_apex = vs @ apex
    triple = np.cross(vs, nxt) @ apex
    cosine = 1.0 + to_apex + (vs * nxt).sum(axis=1) + np.roll(to_apex, -1)
    # The triangles' sign is the opposite of the loop orientation above.
    return wrap(-2.0 * float(np.arctan2(triple, cosine).sum()), 4.0 * math.pi)
