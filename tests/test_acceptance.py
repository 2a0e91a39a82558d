"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import math
import time

import numpy as np
from scipy import stats

from hbtsim.bench import BenchConfig, DetectorTraces
from hbtsim.cli import main
from hbtsim.correlate import SCAN_KINDS, first_order_coherence, g2_cross, g2_self, scan
from hbtsim.oracle import (
    audit_survivor_sum,
    no_jump_probability,
    predict_g2,
    predict_g2_cross,
    solid_angle_of_setup,
    term_audit,
)
from hbtsim.pipeline import simulate_detectors
from hbtsim.source import (
    default_source_config,
    generate_trace,
    phase_jump_process,
    sample_dwell,
    truncated_dwell_mean,
)
from poincare_reference import L, R, linear_state, pancharatnam_phase, polygon_solid_angle, to_sphere

SRC = default_source_config()
T_C = SRC.t_c


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def fit_fringe(points):
    phi = np.array([p.bench.phi4 - p.bench.phi3 for p in points])
    g2 = np.array([p.g2[SCAN_KINDS.index("cross"), 0] for p in points])
    design = np.column_stack([np.cos(2 * phi), np.ones_like(phi)])
    coef, *_ = np.linalg.lstsq(design, g2, rcond=None)
    return coef  # (A, B)


def test_criterion_1_fringe_law(zero_delay_sweep):
    a, b = fit_fringe(zero_delay_sweep.points)
    ok = (
        abs(a - (-0.5)) <= 0.05
        and abs(b - 1.0) <= 0.03
        and zero_delay_sweep.elapsed < 60.0
    )
    report(
        1,
        "fringe law A*cos(2*phi34)+B",
        ok,
        f"A={a:+.4f} B={b:.4f} runtime={zero_delay_sweep.elapsed:.1f}s",
    )


def test_criterion_2_fringe_range(zero_delay_sweep):
    a, b = fit_fringe(zero_delay_sweep.points)
    lo, hi = b - abs(a), b + abs(a)
    ok = 0.45 <= lo <= 0.55 and 1.45 <= hi <= 1.55
    report(2, "fringe spans 0.5..1.5", ok, f"min={lo:.4f} max={hi:.4f}")


def test_criterion_3_self_correlation_nonlocality(zero_delay_sweep):
    self4 = SCAN_KINDS.index("self4")
    vals = np.array([p.g2[self4, 0] for p in zero_delay_sweep.points])
    errs = np.array([p.g2_err[self4, 0] for p in zero_delay_sweep.points])
    spread = vals.max() - vals.min()
    ok = spread <= 4.0 * errs.mean() and abs(vals.mean() - 1.5) <= 0.05
    report(
        3,
        "self correlation flat at 1.5",
        ok,
        f"spread={spread:.4f} 4*err={4 * errs.mean():.4f} mean={vals.mean():.4f}",
    )


def test_criterion_4_mean_intensity_flat(zero_delay_sweep):
    i4 = np.array([p.i4_mean for p in zero_delay_sweep.points])
    rel_spread = (i4.max() - i4.min()) / i4.mean()
    # unit-amplitude balanced sources: (<I1> + <I2>)/4 = 0.5
    rel_dev = abs(i4.mean() / 0.5 - 1.0)
    ok = rel_spread <= 0.03 and rel_dev <= 0.03
    report(
        4,
        "mean intensity flat and at (I1+I2)/4",
        ok,
        f"spread={rel_spread * 100:.2f}% dev={rel_dev * 100:.2f}%",
    )


def test_criterion_5_decoherence_limit():
    # Every kind at 11 delays from 0 to 5 t_c against its oracle
    # 1 + P(tau)^2 (g2(0) - 1), row by row.  A z divides by a standard error
    # from 20 batch means, so under the oracle it follows Student's t with
    # 19 dof.  Bounds: every |z| below the t_19 quantile of two-sided
    # p = 1e-5 (330 cells: at most 0.33 % false failures), and the mean of
    # the 10 per-seed mean z (the cells of one record are correlated, the
    # records are not) within the t_9 quantile of two-sided p = 1e-3 of its
    # standard error.  Expected false-failure rate: at most 0.43 %.
    bench = BenchConfig(phi3=0.0, phi4=math.pi / 2)
    taus = [k * T_C / 2 for k in range(11)]
    oracles = [predict_g2(bench, no_jump_probability(SRC, tau) ** 2) for tau in taus]
    z = []
    for seed in range(10):
        traces = simulate_detectors(SRC, bench, 2e-2, 1e-7, seed=seed)
        values, errors = scan(traces, taus)
        want = np.array([[oracle[kind] for oracle in oracles] for kind in SCAN_KINDS])
        z.append(((values - want) / errors).ravel())
    z = np.array(z)
    per_seed = z.mean(axis=1)
    cell_bound = stats.t.isf(0.5e-5, 19)
    mean_bound = stats.t.isf(0.5e-3, 9) * per_seed.std(ddof=1) / math.sqrt(len(per_seed))
    ok = np.abs(z).max() < cell_bound and abs(per_seed.mean()) < mean_bound
    report(
        5,
        "fringe dies as P(tau)^2 beyond the coherence time",
        ok,
        f"max|z|={np.abs(z).max():.2f}<{cell_bound:.2f} mean z={per_seed.mean():+.3f} (bound {mean_bound:.3f})"
        f" oracle cross {oracles[0]['cross']:.3f} at 0 -> {oracles[-1]['cross']:.4f} at 5Tc",
    )


def test_criterion_6_geometry_cross_validation():
    rng = np.random.default_rng(2718)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        phi3, phi4 = rng.uniform(-math.pi, math.pi, 2)
        states = [R, linear_state(phi4), L, linear_state(phi3)]
        two_phase = 2.0 * pancharatnam_phase(states)
        omega = polygon_solid_angle([to_sphere(s) for s in states])
        target = 4.0 * (phi4 - phi3)
        for pair in (
            (two_phase, omega),
            (omega, target),
            (two_phase, target),
        ):
            worst = max(worst, abs(math.remainder(pair[0] - pair[1], 4 * math.pi)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report(
        6,
        "2*Pancharatnam == solid angle == 4*phi34 (mod 4pi)",
        ok,
        f"worst={worst:.2e} runtime={elapsed * 1000:.0f}ms",
    )


def test_criterion_7_term_audit():
    rng = np.random.default_rng(1618)
    worst = 0.0
    zeros_ok = True
    for _ in range(50):
        phi3, phi4, phi_d = rng.uniform(-math.pi, math.pi, 3)
        terms = term_audit(BenchConfig(phi3, phi4, phi_d))
        zeros_ok &= sum(1 for t in terms if t.value == 0) == 10
        expected = predict_g2_cross(phi_d, solid_angle_of_setup(phi3, phi4))
        worst = max(worst, abs(audit_survivor_sum(terms) - expected))
    ok = zeros_ok and worst <= 1e-12
    report(7, "16-term audit: 10 vanish, survivors sum", ok, f"worst={worst:.2e}")


def test_criterion_8_source_statistics():
    rng = np.random.default_rng(3)
    draws = sample_dwell(SRC, rng.random(10 ** 6))
    edges = np.append(sample_dwell(SRC, np.linspace(0.0, 1.0, 51)[:-1]), SRC.t_max)
    counts, _ = np.histogram(draws, bins=edges)
    _, p_value = stats.chisquare(counts)

    n_jumps = 10 ** 5
    duration = 1.05 * n_jumps * truncated_dwell_mean(SRC)
    _, levels = phase_jump_process(SRC, duration, np.random.default_rng(3))
    phases = np.mod(levels[1 : n_jumps + 1], 2 * math.pi) / (2 * math.pi)
    ks = stats.kstest(phases, "uniform").statistic

    trace = generate_trace(SRC, 2e-2, 1e-7, np.random.default_rng(9))
    g1_tail = abs(first_order_coherence(trace, 5 * T_C))

    ok = p_value >= 0.001 and ks < 0.01 and g1_tail < 0.05
    report(
        8,
        "dwell chi-square, phase KS, |g1(5Tc)|",
        ok,
        f"p={p_value:.3f} ks={ks:.4f} |g1|={g1_tail:.4f}",
    )


def test_criterion_9_estimator_identities(tmp_path):
    const = DetectorTraces(1e-7, 1000, [0], [[0.3, 0.9]])
    exact = g2_cross(const, 0.0)[0] == 1.0 and g2_self(const, 3, 0.0)[0] == 1.0

    bench = BenchConfig(phi3=0.0, phi4=math.pi / 2)
    traces = simulate_detectors(SRC, bench, 2e-3, 1e-7, seed=77)
    base = g2_cross(traces, 0.0)[0]
    scaled = DetectorTraces(traces.dt, traces.n, traces.starts, traces.values * [1e5, 3.0])
    scale_ok = abs(g2_cross(scaled, 0.0)[0] - base) < 1e-12

    trace_path = tmp_path / "sim.csv"
    out_path = tmp_path / "an.csv"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("sim.duration = 2e-3\nsim.seed = 77\n")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(trace_path)]) == 0
    assert main(["analyze", str(trace_path), "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    columns = lines[0][len("# columns: ") :].split(",")
    analyzed = float(lines[1].split(",")[columns.index("g2_cross")])
    in_process, _ = g2_cross(simulate_detectors(SRC, bench, 2e-3, 1e-7, seed=77), 0.0)
    roundtrip_ok = analyzed == in_process  # bit-for-bit

    ok = exact and scale_ok and roundtrip_ok
    report(
        9,
        "estimator identities and round trip",
        ok,
        f"exact={exact} scale={scale_ok} roundtrip={roundtrip_ok}",
    )
