#!/usr/bin/env python3
"""Poincaré-sphere geometry walkthrough.

Places circular and linear polarization states on the sphere, checks that
the projector of a linear polariser has the expected matrix form, and then
demonstrates the central geometric identity of the bench: the Pancharatnam
phase of the closed polariser loop R -> 4 -> L -> 3 equals half the solid
angle of the corresponding geodesic lune, which in turn is 4*(phi4 - phi3).
"""

import math
import sys
from pathlib import Path

import numpy as np

# The geometry is the tests' reference for the bench, not part of the package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from poincare_reference import L, R, linear_state, pancharatnam_phase, polygon_solid_angle, to_sphere  # noqa: E402


def show_state(name, state):
    s1, s2, s3 = to_sphere(state)
    print(f"  {name:<18} a_r={state[0]:+.3f}  a_l={state[1]:+.3f}"
          f"   sphere=({s1:+.3f}, {s2:+.3f}, {s3:+.3f})")


def main():
    print("Polarization states in the helicity basis and on the sphere:")
    show_state("right circular", R)
    show_state("left circular", L)
    for deg in (0, 45, 90, 135):
        show_state(f"linear {deg:>3} deg", linear_state(math.radians(deg)))
    print()

    phi = math.radians(30)
    print(f"Projector of the 30-degree polariser (off-diagonals e^(-+2i*phi)/2):")
    k = linear_state(phi)
    m = np.outer(k, k.conj())
    print(np.array_str(0.5 * (m + m.conj().T), precision=4))  # exactly Hermitian: a real diagonal
    print()

    print("Loop R -> 4 -> L -> 3: geometric phase vs enclosed solid angle")
    print(f"  {'phi34':>8} {'2*Pancharatnam':>16} {'solid angle':>13} {'4*phi34':>10}")
    for deg in (15, 45, 90, 130, 170):
        phi34 = math.radians(deg)
        states = [R, linear_state(phi34), L, linear_state(0.0)]
        twice_phase = 2 * pancharatnam_phase(states)
        omega = polygon_solid_angle([to_sphere(s) for s in states])
        target = 4 * phi34
        print(f"  {deg:>6}d {twice_phase:>16.6f} {omega:>13.6f} {target:>10.6f}"
              f"   (all equal mod 4*pi)")
    print()
    print("A retraced arc (phi4 = phi3) encloses nothing:")
    states = [R, linear_state(0.0), L, linear_state(0.0)]
    print(f"  Pancharatnam phase = {pancharatnam_phase(states):.3e} rad")


if __name__ == "__main__":
    main()
