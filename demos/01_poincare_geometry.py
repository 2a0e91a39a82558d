#!/usr/bin/env python3
"""Poincaré-sphere geometry walkthrough.

Places circular and linear polarization states on the sphere, checks that
the projector of a linear polariser has the expected matrix form, and then
demonstrates the central geometric identity of the bench: the Pancharatnam
phase of the closed polariser loop R -> 4 -> L -> 3 equals half the solid
angle of the corresponding geodesic lune, which in turn is 4*(phi4 - phi3).
"""

import math

import numpy as np

from hbtsim.poincare import (
    LEFT_CIRCULAR,
    RIGHT_CIRCULAR,
    linear_state,
    pancharatnam_phase,
    polygon_solid_angle,
    projector_of,
    to_sphere,
)


def show_state(name, state):
    p = to_sphere(state)
    print(f"  {name:<18} a_r={state.a_r:+.3f}  a_l={state.a_l:+.3f}"
          f"   sphere=({p.s1:+.3f}, {p.s2:+.3f}, {p.s3:+.3f})")


def main():
    print("Polarization states in the helicity basis and on the sphere:")
    show_state("right circular", RIGHT_CIRCULAR)
    show_state("left circular", LEFT_CIRCULAR)
    for deg in (0, 45, 90, 135):
        show_state(f"linear {deg:>3} deg", linear_state(math.radians(deg)))
    print()

    phi = math.radians(30)
    print(f"Projector of the 30-degree polariser (off-diagonals e^(-+2i*phi)/2):")
    print(np.array_str(projector_of(linear_state(phi)).matrix, precision=4))
    print()

    print("Loop R -> 4 -> L -> 3: geometric phase vs enclosed solid angle")
    print(f"  {'phi34':>8} {'2*Pancharatnam':>16} {'solid angle':>13} {'4*phi34':>10}")
    for deg in (15, 45, 90, 130, 170):
        phi34 = math.radians(deg)
        states = [RIGHT_CIRCULAR, linear_state(phi34), LEFT_CIRCULAR, linear_state(0.0)]
        twice_phase = 2 * pancharatnam_phase(states)
        omega = polygon_solid_angle([to_sphere(s) for s in states])
        target = 4 * phi34
        print(f"  {deg:>6}d {twice_phase:>16.6f} {omega:>13.6f} {target:>10.6f}"
              f"   (all equal mod 4*pi)")
    print()
    print("A retraced arc (phi4 = phi3) encloses nothing:")
    states = [RIGHT_CIRCULAR, linear_state(0.0), LEFT_CIRCULAR, linear_state(0.0)]
    print(f"  Pancharatnam phase = {pancharatnam_phase(states):.3e} rad")


if __name__ == "__main__":
    main()
