#!/usr/bin/env python3
"""Why the effect is nonlocal: only the cross correlation sees the loop.

Runs the same sweep of the detector-4 polariser three ways and prints the
three observables side by side: the cross correlation swings with the
geometric phase, while detector 4's own self correlation and mean intensity
stay put.  Closes with the 16-term audit that explains the bookkeeping:
ten terms vanish on time averaging, four direct terms set the baseline, and
exactly two terms - the ones whose projector chain circles the sphere -
carry the geometric phase.
"""

import math

from hbtsim.bench import BenchConfig, mean_intensity
from hbtsim.cli import predict_report
from hbtsim.correlate import g2_cross, g2_self
from hbtsim.pipeline import simulate_detectors
from hbtsim.source import default_source_config

DURATION = 1e-2
DT = 1e-7


def main():
    src = default_source_config()
    print("sweep of polariser 4 (polariser 3 fixed): who notices?")
    print(f"  {'phi34':>6} | {'g2_cross(0)':>12} | {'g2_self4(0)':>12} | {'<I4>':>8}")
    for i in range(9):
        phi34 = 2 * math.pi * i / 8
        bench = BenchConfig(phi3=0.0, phi4=phi34)
        traces = simulate_detectors(src, bench, DURATION, DT, seed=55, point=i)
        (cross, cross_err), (self4, self4_err) = g2_cross(traces, 0.0), g2_self(traces, 4, 0.0)
        print(f"  {math.degrees(phi34):>5.0f}d | {cross:>6.3f}+-{cross_err:<5.3f}"
              f"| {self4:>6.3f}+-{self4_err:<5.3f}| {mean_intensity(traces)[1]:>8.4f}")
    print()
    print("the fringe lives only in the cross correlation: the self correlation")
    print("loop R-4-L-4 encloses no solid angle, and the mean intensity averages")
    print("the source phases away entirely.")
    print()
    print(predict_report(BenchConfig(phi3=0.0, phi4=math.pi / 2)))


if __name__ == "__main__":
    main()
