import math
import tracemalloc

import numpy as np
import pytest

from hbtsim.bench import (
    BenchConfig,
    DetectorTraces,
    amplitudes,
    load_detector_traces,
    mean_intensity,
    propagate,
    save_detector_traces,
)
from hbtsim.correlate import SCAN_KINDS, g2_self, scan
from hbtsim.csvutil import IO_BLOCK, write_csv
from hbtsim.errors import IncompatibleTracesError, TraceFormatError
from hbtsim.oracle import no_jump_probability, predict_g2
from hbtsim.pipeline import simulate_detectors
from hbtsim.source import FieldTrace, default_source_config, generate_trace
from poincare_reference import linear_state

SRC = default_source_config()

P_R = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
P_L = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def dense_matrix_oracle(e1: FieldTrace, e2: FieldTrace, cfg: BenchConfig):
    """Independent per-sample evaluation with explicit 2x2 matrix algebra.

    The dynamical phase u2 = e^{i phi_d} rides the S2 -> D3 path only."""
    k3, k4 = linear_state(cfg.phi3), linear_state(cfg.phi4)
    p3, p4 = np.outer(k3, k3.conj()), np.outer(k4, k4.conj())
    u2 = np.exp(1j * cfg.phi_d)
    scale = math.sqrt(cfg.balance)
    i3 = np.empty(len(e1.samples))
    i4 = np.empty(len(e1.samples))
    for idx in range(len(e1.samples)):
        f1 = e1.samples[idx] * np.array([1.0, 0.0], dtype=complex)
        f2 = scale * e2.samples[idx] * np.array([0.0, 1.0], dtype=complex)
        for proj, eps, u, out in ((p3, 1.0, u2, i3), (p4, -1.0, 1.0, i4)):
            v = proj @ (eps * (P_L @ f2) * u + (P_R @ f1)) / math.sqrt(2.0)
            out[idx] = float(np.real(np.vdot(v, v)))
    return i3, i4


def random_trace(rng, n=64, dt=1e-7) -> FieldTrace:
    """One run per sample, each a random field value."""
    return FieldTrace(dt, n, np.arange(n), rng.normal(size=n) + 1j * rng.normal(size=n))


def constant_trace(value, n=64, dt=1e-7) -> FieldTrace:
    return FieldTrace(dt, n, [0], [value])


def test_single_source_gives_quarter_intensity():
    amp = 1.7
    unit = generate_trace(SRC, 2e-4, 1e-7, np.random.default_rng(4))
    e1 = FieldTrace(unit.dt, unit.n, unit.starts, amp * unit.values)
    e2 = constant_trace(0.0, n=len(e1.samples))
    out = propagate(e1, e2, BenchConfig(phi3=0.3, phi4=1.1))
    assert np.max(np.abs(out.i3 - amp ** 2 / 4)) < 1e-12 * amp ** 2
    assert np.max(np.abs(out.i4 - amp ** 2 / 4)) < 1e-12 * amp ** 2


def test_matches_dense_matrix_oracle():
    rng = np.random.default_rng(14)
    for _ in range(5):
        phi3, phi4, phi_d = rng.uniform(-math.pi, math.pi, 3)
        balance = rng.uniform(0.3, 3.0)
        cfg = BenchConfig(phi3=phi3, phi4=phi4, phi_d=phi_d, balance=balance)
        e1, e2 = random_trace(rng), random_trace(rng)
        out = propagate(e1, e2, cfg)
        i3, i4 = dense_matrix_oracle(e1, e2, cfg)
        assert np.max(np.abs(out.i3 - i3)) < 1e-12
        assert np.max(np.abs(out.i4 - i4)) < 1e-12


def test_constant_coherent_fields_against_oracle():
    cfg = BenchConfig(phi3=0.2, phi4=1.4, phi_d=0.0)
    e1 = constant_trace(1.0)
    e2 = constant_trace(np.exp(0.6j))
    out = propagate(e1, e2, cfg)
    i3, i4 = dense_matrix_oracle(e1, e2, cfg)
    assert np.allclose(out.i3, i3, atol=1e-12)
    assert np.allclose(out.i4, i4, atol=1e-12)


def test_swapping_detectors_flips_interference_sign():
    rng = np.random.default_rng(15)
    e1, e2 = random_trace(rng), random_trace(rng)
    a, b = 0.35, 1.25
    out = propagate(e1, e2, BenchConfig(phi3=a, phi4=b))
    swapped = propagate(e1, e2, BenchConfig(phi3=b, phi4=a))
    # detector 3 at angle b (+ sign) plus detector 4 at angle b (- sign)
    # reconstruct the full input power: the interference terms cancel.
    total = 0.5 * (np.abs(e1.samples) ** 2 + np.abs(e2.samples) ** 2)
    assert np.max(np.abs(swapped.i3 + out.i4 - total)) < 1e-12


def test_energy_inequality_per_sample():
    traces = simulate_detectors(SRC, BenchConfig(phi3=0.1, phi4=0.9), 2e-3, 1e-7, seed=5)
    budget = 1.0 + 1.0  # both sources at unit intensity, balance 1
    assert np.all(traces.i3 + traces.i4 <= budget + 1e-12)


def test_common_global_phase_leaves_intensities():
    rng = np.random.default_rng(17)
    e1, e2 = random_trace(rng), random_trace(rng)
    cfg = BenchConfig(phi3=0.3, phi4=1.0, phi_d=0.4)
    base = propagate(e1, e2, cfg)
    rot = np.exp(0.9j)
    shifted = propagate(
        FieldTrace(e1.dt, e1.n, e1.starts, e1.values * rot),
        FieldTrace(e2.dt, e2.n, e2.starts, e2.values * rot),
        cfg,
    )
    assert np.allclose(shifted.i3, base.i3, atol=1e-12)
    assert np.allclose(shifted.i4, base.i4, atol=1e-12)


def test_balance_scales_source_two():
    e1 = constant_trace(0.0)
    e2 = constant_trace(1.0)
    out = propagate(e1, e2, BenchConfig(phi3=0.0, phi4=1.0, balance=2.0))
    assert np.allclose(out.i3, 0.5, atol=1e-12)  # balance * 1/4


def per_sample_intensities(e1: FieldTrace, e2: FieldTrace, cfg: BenchConfig):
    """Reference: the bench's amplitude table applied at each sample on its own."""
    out = []
    for a1, a2 in amplitudes(cfg):
        amp = e1.samples * a1 + e2.samples * a2
        out.append(amp.real ** 2 + amp.imag ** 2)
    return out


def source_pair(cfg, duration, dt, seed):
    return tuple(generate_trace(cfg, duration, dt, np.random.default_rng(seed + i)) for i in (0, 1))


def shared_jump_pair(seed):
    """A generated trace, and a second one that jumps on the same samples."""
    e1 = generate_trace(SRC, 2e-3, 1e-7, np.random.default_rng(seed))
    values = np.exp(2j * math.pi * np.random.default_rng(seed + 1).random(len(e1.starts)))
    return e1, FieldTrace(e1.dt, e1.n, e1.starts, values)


def steady_pair(seed):
    """A generated trace, and a second one that never jumps."""
    e1 = generate_trace(SRC, 2e-3, 1e-7, np.random.default_rng(seed))
    return e1, constant_trace(0.6 - 0.8j, n=e1.n)


def signed_zero_trace(seed, n=64):
    rng = np.random.default_rng(seed)
    # Real and imaginary parts drawn as pairs, so both keep the sign of zero.
    parts = rng.choice(np.array([0.0, -0.0, 1.0, -1.0]), (n, 2))
    return FieldTrace(1e-7, n, np.arange(n), parts.view(complex).ravel())


@pytest.mark.parametrize("pair, cfg", [
    (lambda: source_pair(SRC, 2e-2, 1e-7, 1), BenchConfig(phi3=0.0, phi4=0.5 * math.pi)),
    (lambda: source_pair(SRC, 1.23456789e-3, 1.7e-7, 3),
     BenchConfig(phi3=0.4, phi4=2.9, phi_d=1.1, balance=0.3)),
    (lambda: (random_trace(np.random.default_rng(19), n=5000),) * 2,
     BenchConfig(phi3=-0.7, phi4=0.2, phi_d=-2.0, balance=4.0)),
    (lambda: (random_trace(np.random.default_rng(20), n=5000), random_trace(np.random.default_rng(21), n=5000)),
     BenchConfig(phi3=1.3, phi4=0.1, phi_d=0.5)),
    (lambda: (signed_zero_trace(18), signed_zero_trace(22)), BenchConfig(phi3=0.0, phi4=0.0, phi_d=0.0)),
    (lambda: (constant_trace(0.3 - 0.2j, n=1), constant_trace(1j, n=1)), BenchConfig(phi3=0.5, phi4=1.5, phi_d=0.3)),
    (lambda: shared_jump_pair(8), BenchConfig(phi3=0.2, phi4=1.9, phi_d=0.7, balance=0.6)),
    (lambda: steady_pair(9), BenchConfig(phi3=0.0, phi4=0.5 * math.pi)),
    (lambda: steady_pair(10)[::-1], BenchConfig(phi3=1.1, phi4=-0.4, balance=2.0)),
], ids=["sources", "sources_unbalanced", "dense_same", "dense", "signed_zeros", "one_sample",
        "same_jumps", "second_never_jumps", "first_never_jumps"])
def test_propagate_is_bitwise_the_per_sample_bench(pair, cfg):
    e1, e2 = pair()
    out = propagate(e1, e2, cfg)
    i3, i4 = per_sample_intensities(e1, e2, cfg)
    assert out.i3.tobytes() == i3.tobytes()
    assert out.i4.tobytes() == i4.tobytes()


def test_propagate_peaks_below_a_hundred_bytes_per_run():
    # Between the 136 B per run of gathering both source fields before
    # weighting them and the 81 B of weighting them first.
    e1, e2 = source_pair(SRC, 2e-2, 1e-7, 7)
    run = lambda: propagate(e1, e2, BenchConfig(phi3=0.0, phi4=0.5 * math.pi))
    runs = len(run().starts)  # one-time allocations
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * runs


def test_mean_intensity_basics():
    tr = DetectorTraces(1.0, 8, [0], [[0.3, 0.9]])
    assert mean_intensity(tr, 3) == pytest.approx(0.3, abs=1e-15)
    assert mean_intensity(tr, 4) == pytest.approx(0.9, abs=1e-15)
    with pytest.raises(ValueError):
        mean_intensity(tr, 5)


def test_mean_intensity_matches_quarter_sum(zero_delay_sweep):
    # <I_i> = (<I1> + <I2>)/4 = 0.5 for unit-amplitude balanced sources
    for pt in zero_delay_sweep.points:
        assert abs(pt.i3_mean / 0.5 - 1.0) < 0.02
        assert abs(pt.i4_mean / 0.5 - 1.0) < 0.02


def test_mean_intensity_flat_over_polariser_sweep(zero_delay_sweep):
    i4 = np.array([pt.i4_mean for pt in zero_delay_sweep.points])
    assert (i4.max() - i4.min()) / i4.mean() < 0.03


def test_amplitudes_are_the_projector_elements():
    # Geometry checked apart from the table: 2 conj(A_aj) A_ak is the
    # element [j, k] of the polariser projector times conj(c_j) c_k, with
    # source coefficients c = (1, eps_a sqrt(b) e^{i phi_d at detector 3}).
    rng = np.random.default_rng(41)
    for _ in range(50):
        phi3, phi4, phi_d = rng.uniform(-7, 7, 3)
        cfg = BenchConfig(phi3=phi3, phi4=phi4, phi_d=phi_d, balance=rng.uniform(0.2, 5.0))
        table = amplitudes(cfg)
        for a, (phi, eps, u) in enumerate(((phi3, 1.0, np.exp(1j * phi_d)), (phi4, -1.0, 1.0))):
            k = linear_state(phi)
            proj = np.outer(k, k.conj())
            c = np.array([1.0, eps * math.sqrt(cfg.balance) * u])
            expected = proj * np.outer(c.conj(), c)
            assert np.max(np.abs(2 * np.outer(table[a].conj(), table[a]) - expected)) < 1e-12


def test_static_arm_phase_invisible_at_zero_delay():
    # phi_d rides the S2 -> D3 path only: it moves per-sample intensities at
    # detector 3 and the cross fringe, but no self correlation and no mean
    # intensity, and detector 4 does not see it at all.
    cfg0 = BenchConfig(phi3=0.0, phi4=0.6)
    cfg1 = BenchConfig(phi3=0.0, phi4=0.6, phi_d=1.1)
    base = simulate_detectors(SRC, cfg0, 2e-2, 1e-7, seed=31)
    shifted = simulate_detectors(SRC, cfg1, 2e-2, 1e-7, seed=31)
    assert np.array_equal(base.i4, shifted.i4)
    assert not np.array_equal(base.i3, shifted.i3)
    a = g2_self(base, 3, 0.0)
    b = g2_self(shifted, 3, 0.0)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)
    for which in (3, 4):
        assert abs(mean_intensity(base, which) - mean_intensity(shifted, which)) < 0.03


def test_every_kind_agrees_with_oracle_at_random_phases():
    # The simulated bench sees phi_d where the oracle books it: in the cross
    # fringe 1 - V cos(phi_d + omega/2)/2 only, while both self kinds stay
    # at 1 + V/2 and the mean intensities at (1 + b)/4 whatever phi_d and
    # phi34 are (a record's mean intensity has a relative spread of ~2 %).
    rng = np.random.default_rng(2026)
    for seed in range(40, 52):
        phi3, phi34, phi_d = rng.uniform(-math.pi, math.pi, 3)
        balance = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        cfg = BenchConfig(phi3=phi3, phi4=phi3 + phi34, phi_d=phi_d, balance=balance)
        traces = simulate_detectors(SRC, cfg, 2e-2, 1e-7, seed=seed)
        oracle = predict_g2(cfg)
        values, errors = scan(traces, [0.0])
        for kind, (value,), (error,) in zip(SCAN_KINDS, values, errors):
            z = (value - oracle[kind]) / error
            assert abs(z) < 5.0, (kind, seed, value, oracle[kind])
        for which in (3, 4):
            assert abs(mean_intensity(traces, which) / ((1.0 + balance) / 4.0) - 1.0) < 0.1


@pytest.mark.parametrize("dt", [SRC.t_min, 3 * SRC.t_min, SRC.t_c], ids=["t_min", "3_t_min", "t_c"])
def test_every_kind_follows_the_no_jump_oracle_at_any_dt(dt):
    # Sample-and-hold sees the continuous process at the instants k dt, and
    # drops only the levels that hold no sample.  So at lag k every kind is
    # 1 + P(k dt)^2 (g2(0) - 1), however many dwells fall between samples.
    cfg = BenchConfig(phi3=0.0, phi4=math.radians(22.5))
    lags = range(6)
    oracles = [predict_g2(cfg, no_jump_probability(SRC, k * dt) ** 2) for k in lags]
    z = {kind: [] for kind in SCAN_KINDS}
    for seed in range(12):
        traces = simulate_detectors(SRC, cfg, 2e-2, dt, seed=seed)
        values, errors = scan(traces, [k * dt for k in lags])
        for kind, kind_values, kind_errors in zip(SCAN_KINDS, values, errors):
            z[kind].append([(v - o[kind]) / e for v, e, o in zip(kind_values, kind_errors, oracles)])
    for kind, zs in z.items():
        zs = np.array(zs)
        assert np.abs(zs).max() < 5.0, (kind, zs)
        # The lags of one record are correlated: pool them per seed.
        per_seed = zs.mean(axis=1)
        assert abs(per_seed.mean()) < 3.0 * per_seed.std(ddof=1) / math.sqrt(len(per_seed)), (kind, zs)


def test_incompatible_traces_raise():
    a = constant_trace(1.0, n=32, dt=1e-7)
    with pytest.raises(IncompatibleTracesError):
        propagate(a, constant_trace(1.0, n=32, dt=2e-7), BenchConfig(0.0, 1.0))
    with pytest.raises(IncompatibleTracesError):
        propagate(a, constant_trace(1.0, n=16, dt=1e-7), BenchConfig(0.0, 1.0))


def test_bench_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(phi3=0.0, phi4=1.0, balance=0.0)
    with pytest.raises(ValueError):
        BenchConfig(phi3=math.nan, phi4=1.0)


def test_detector_csv_roundtrip(tmp_path):
    traces = simulate_detectors(SRC, BenchConfig(0.0, 1.3), 2e-4, 1e-7, seed=6)
    path = tmp_path / "det.csv"
    save_detector_traces(traces, path)
    back = load_detector_traces(path)
    assert back.dt == traces.dt
    assert np.array_equal(back.i3, traces.i3)
    assert np.array_equal(back.i4, traces.i4)


def test_detector_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,0.2\n")
    with pytest.raises(TraceFormatError, match="line 1"):
        load_detector_traces(path)
    path.write_text("# dt=1e-07\n0.1,0.2,0.3\n")
    with pytest.raises(TraceFormatError, match="line 2"):
        load_detector_traces(path)
    path.write_text("# dt=1e-07\n0.1,zap\n")
    with pytest.raises(TraceFormatError, match="line 2"):
        load_detector_traces(path)
    # a bad value names its own line, not the last line of the file
    for bad in ("0.1,-0.2", "nan,0.2", "0.1,inf", "-inf,0.2"):
        path.write_text(f"# dt=1e-07\n0.1,0.2\n{bad}\n0.1,0.2\n0.1,0.2\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            load_detector_traces(path)


def per_row_csv(traces: DetectorTraces) -> str:
    """Reference writer: every row formatted on its own."""
    rows = [f"{a!r},{b!r}\n" for a, b in zip(traces.i3.tolist(), traces.i4.tolist())]
    return f"# dt={traces.dt!r}\n" + "".join(rows)


def traces_of_runs(i3, i4, starts, dt=1e-7) -> DetectorTraces:
    """Per-sample ``i3``, ``i4`` stored as the runs that start at ``starts``,
    checked to expand back to the same bytes."""
    i3, i4 = np.array(i3, dtype=float), np.array(i4, dtype=float)
    traces = DetectorTraces(dt, len(i3), starts, np.stack((i3, i4), axis=1)[starts])
    assert traces.i3.tobytes() == i3.tobytes() and traces.i4.tobytes() == i4.tobytes()
    return traces


@pytest.mark.parametrize("i3, i4, starts", [
    ([0.0, -0.0, -0.0, 0.0, 0.5, 0.5], [0.25, 0.25, 0.25, 0.25, -0.0, 0.0], [0, 1, 3, 4, 5]),
    ([0.1, 0.2, 0.2, 0.2, 0.3], [0.4, 0.4, 0.4, 0.4, 0.4], [0, 1, 4]),
    (np.random.default_rng(23).random(1000), np.random.default_rng(24).random(1000), np.arange(1000)),
    (np.full(1000, 0.25), np.full(1000, 1.0 / 3.0), [0]),
    ([0.7], [0.0], [0]),
], ids=["signed_zeros", "runs_of_one_at_both_ends", "every_row_differs", "every_row_same", "one_row"])
def test_detector_csv_is_the_per_row_bytes(tmp_path, i3, i4, starts):
    traces = traces_of_runs(i3, i4, starts, dt=1.7e-7)
    path = tmp_path / "det.csv"
    save_detector_traces(traces, path)
    assert path.read_bytes() == per_row_csv(traces).encode()
    back = load_detector_traces(path)
    assert back.dt == traces.dt
    assert back.i3.tobytes() == traces.i3.tobytes()
    assert back.i4.tobytes() == traces.i4.tobytes()
    assert back.starts.tolist() == list(starts)


def test_detector_csv_skips_comments_and_blanks_inside_a_run(tmp_path):
    path = tmp_path / "det.csv"
    path.write_text("# dt=1e-07\n0.1,0.2\n0.1,0.2\n# note\n\n0.1,0.2\n0.3,0.4\n\n0.3,0.4\n0.1,0.2\n")
    back = load_detector_traces(path)
    assert back.i3.tolist() == [0.1, 0.1, 0.1, 0.3, 0.3, 0.1]
    assert back.i4.tolist() == [0.2, 0.2, 0.2, 0.4, 0.4, 0.2]


@pytest.mark.parametrize("edit", [
    lambda text: text.replace(b"\n", b"\r\n"),
    lambda text: text[:-1],
    lambda text: text.replace(b"\n", b"\r\n")[:-2],
], ids=["crlf", "no_final_newline", "crlf_no_final_newline"])
def test_detector_csv_line_ends(tmp_path, edit):
    traces = simulate_detectors(SRC, BenchConfig(0.0, 1.3), 2e-4, 1e-7, seed=6)
    path = tmp_path / "det.csv"
    save_detector_traces(traces, path)
    lf = load_detector_traces(path)
    path.write_bytes(edit(path.read_bytes()))
    back = load_detector_traces(path)
    assert back.dt == traces.dt
    assert back.i3.tobytes() == traces.i3.tobytes()
    assert back.i4.tobytes() == traces.i4.tobytes()
    # the same runs, so the estimates keep their bytes
    assert back.starts.tolist() == lf.starts.tolist()


def test_detector_csv_byte_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    for text, line in ((b"# dt=1e-07\xff\n0.1,0.2\n", 1), (b"# dt=1e-07\n0.1,0.2\n# caf\xe9\n0.1,0.2\n", 3)):
        path.write_bytes(text)
        with pytest.raises(TraceFormatError, match=f"^line {line}: not UTF-8$"):
            load_detector_traces(path)


@pytest.mark.parametrize("bad", ["0.1,-0.2", "zap,0.2", "nan,0.2", "0.1,0.2,0.3"])
def test_detector_csv_error_names_the_first_bad_line(tmp_path, bad):
    path = tmp_path / "bad.csv"
    # after a long run of equal good lines
    path.write_text("# dt=1e-07\n" + "0.1,0.2\n" * 1000 + f"{bad}\n" + "0.1,0.2\n" * 3)
    with pytest.raises(TraceFormatError, match="^line 1002:"):
        load_detector_traces(path)
    # repeated, also after a comment that splits the good run
    path.write_text("# dt=1e-07\n0.1,0.2\n# c\n0.1,0.2\n" + f"{bad}\n" * 5 + "0.1,0.2\n")
    with pytest.raises(TraceFormatError, match="^line 5:"):
        load_detector_traces(path)


# --- trace files longer than one IO_BLOCK -----------------------------------------


def test_detector_csv_run_across_read_blocks_is_the_per_row_bytes(tmp_path):
    # 38-byte lines from sample 1000 to 4000 straddle the first block
    # boundary, 10-byte lines from 4100 on the second.
    traces = DetectorTraces(1e-7, 6000, [0, 1000, 4000, 4100], [[0.1, 0.2], [1 / 3, 2 / 7], [0.5, 1 / 9], [0.25, 0.75]])
    path = tmp_path / "det.csv"
    save_detector_traces(traces, path)
    data = path.read_bytes()
    assert data == per_row_csv(traces).encode()
    for crlf in (False, True):
        if crlf:
            path.write_bytes(data.replace(b"\n", b"\r\n"))
        written = path.read_bytes()
        lines = written.splitlines()
        for boundary in (IO_BLOCK, 2 * IO_BLOCK):
            line = written.count(b"\n", 0, boundary) + 1
            assert lines[line - 2] == lines[line - 1] == lines[line]  # inside a run
        back = load_detector_traces(path)
        assert back.dt == traces.dt
        assert back.starts.tolist() == traces.starts.tolist()
        assert back.values.tobytes() == traces.values.tobytes()


def lines_from_a_block_boundary(offset: int) -> tuple[str, int]:
    """A per-row trace file of equal 8-byte lines, padded by a comment so
    that a line starts at every ``IO_BLOCK`` boundary, and the number of the
    line at byte ``offset``."""
    header, rows = per_row_csv(DetectorTraces(1e-7, 20_000, [0], [[0.1, 0.2]])).split("\n", 1)
    text = f"{header}\n#pad\n{rows}"
    assert len(f"{header}\n#pad\n") % 8 == 0 and rows.startswith("0.1,0.2\n")
    return text, text.count("\n", 0, offset) + 1


@pytest.mark.parametrize("offset, line", [(IO_BLOCK, 8193), (2 * IO_BLOCK, 16385)], ids=["first", "second"])
def test_detector_csv_bad_value_after_a_block_boundary_names_its_line(tmp_path, offset, line):
    text, at = lines_from_a_block_boundary(offset)
    assert at == line and text[offset - 1] == "\n"
    path = tmp_path / "bad.csv"
    path.write_text(text[:offset] + "0.1,zap\n" + text[offset + 8 :])
    with pytest.raises(TraceFormatError, match=f"^line {line}: expected 'i3,i4' numbers, got '0.1,zap'$"):
        load_detector_traces(path)


@pytest.mark.parametrize("offset, line", [(IO_BLOCK, 8193), (IO_BLOCK + 800, 8293)], ids=["at_boundary", "inside_block"])
def test_detector_csv_byte_that_is_not_utf8_after_the_first_block(tmp_path, offset, line):
    text, at = lines_from_a_block_boundary(offset)
    assert at == line
    path = tmp_path / "bad.csv"
    data = text.encode()
    path.write_bytes(data[:offset] + b"0.1,0.\xff\n" + data[offset + 8 :])
    with pytest.raises(TraceFormatError, match=f"^line {line}: not UTF-8$"):
        load_detector_traces(path)


def test_detector_csv_one_run_longer_than_a_block(tmp_path):
    traces = DetectorTraces(1e-7, 100_000, [0], [[0.5, 1 / 3]])  # 2.3 MB of equal lines
    path = tmp_path / "det.csv"
    save_detector_traces(traces, path)
    assert path.read_bytes() == per_row_csv(traces).encode()
    tracemalloc.start()
    try:
        save_detector_traces(traces, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * IO_BLOCK


@pytest.mark.parametrize("items", [
    [],
    [f"{i},{i * i}" for i in range(30_000)],
    ["a\nb", "", "x" * (IO_BLOCK - 1), "y" * IO_BLOCK, "z" * (3 * IO_BLOCK + 5), "\n".join(["w" * 99] * 2000), "café", "\n"],
], ids=["no_items", "many_small", "multi_line"])
def test_write_csv_writes_each_item_and_a_newline(tmp_path, items):
    path = tmp_path / "out.csv"
    write_csv(path, "# h", iter(items))
    assert path.read_bytes() == ("# h\n" + "".join(item + "\n" for item in items)).encode()


def test_detector_traces_validation():
    with pytest.raises(ValueError, match=r"^expected one \(i3, i4\) pair per run$"):
        DetectorTraces(1.0, 4, [0, 2], [[1.0, 1.0]])
    with pytest.raises(ValueError, match=r"^expected one \(i3, i4\) pair per run$"):
        DetectorTraces(1.0, 4, [0], [1.0, 1.0])
    with pytest.raises(ValueError, match="^intensities must be nonnegative$"):
        DetectorTraces(1.0, 4, [0], [[-1.0, 1.0]])


@pytest.mark.parametrize("bad, message", [
    (math.nan, "intensities must be finite"),
    (math.inf, "intensities must be finite"),
    (-0.5, "intensities must be nonnegative"),
    (-math.inf, "intensities must be finite"),
], ids=["nan", "inf", "negative", "negative_inf"])
def test_detector_traces_check_run_values(bad, message):
    good = np.full(6, 0.5)
    for column in (0, 1):
        samples = [good, good]
        samples[column] = np.array([0.5, 0.5, bad, bad, 0.5, 0.5])
        with pytest.raises(ValueError, match=f"^{message}$"):
            DetectorTraces(1e-7, 6, np.arange(6), np.stack(samples, axis=1))
        pairs = np.full((3, 2), 0.5)
        pairs[1, column] = bad
        with pytest.raises(ValueError, match=f"^{message}$"):
            DetectorTraces(1e-7, 6, [0, 2, 4], pairs)


def test_detector_traces_report_nan_before_negative():
    # A record with both faults reads "finite", wherever each one sits.
    for pairs in ([[-0.5, 0.5], [0.5, math.nan]], [[math.nan, 0.5], [0.5, -0.5]], [[-0.5, math.nan], [0.5, 0.5]]):
        with pytest.raises(ValueError, match="^intensities must be finite$"):
            DetectorTraces(1e-7, 4, [0, 2], pairs)


@pytest.mark.parametrize("starts, n", [([], 4), ([1, 2], 4), ([0, 2, 2], 4), ([0, 3, 1], 4), ([0, 4], 4), ([0], 0)],
                         ids=["none", "late_first", "repeated", "decreasing", "past_the_end", "empty"])
def test_detector_traces_check_run_starts(starts, n):
    message = "^runs must start at sample 0, then at increasing samples below n$" if n else "^a record needs at least one sample$"
    with pytest.raises(ValueError, match=message):
        DetectorTraces(1e-7, n, starts, np.full((len(starts), 2), 0.5))


@pytest.mark.parametrize("n, starts, message", [
    (10, [0, 2.7], "^run starts must be integers$"),
    (10, [0.0, 2.0], "^run starts must be integers$"),
    (10, [0, 1e300], "^run starts must be integers$"),
    (10.7, [0, 2], "^n must be an integer$"),
    (math.inf, [0, 2], "^n must be an integer$"),
], ids=["fraction", "float", "overflow", "fractional_n", "infinite_n"])
def test_records_refuse_what_is_not_an_integer(n, starts, message):
    # A cast to integers would truncate [0, 2.7] to [0, 2] and 10.7 to 10,
    # and overflow on 1e300.
    with pytest.raises(ValueError, match=message):
        DetectorTraces(1.0, n, starts, np.full((len(starts), 2), 0.5))
    with pytest.raises(ValueError, match=message):
        FieldTrace(1.0, n, starts, np.ones(len(starts)))


@pytest.mark.parametrize("i3, i4, starts", [
    ([0.0, -0.0, -0.0, 0.0, 0.5, 0.5], [0.25, 0.25, 0.25, 0.25, -0.0, 0.0], [0, 1, 3, 4, 5]),
    ([0.1, 0.2, 0.2, 0.2, 0.3, 0.3], [0.4, 0.4, 0.4, 0.4, 0.4, 0.5], [0, 1, 4, 5]),
    ([0.7], [0.0], [0]),
    (np.random.default_rng(25).random(1000), np.random.default_rng(26).random(1000), np.arange(1000)),
], ids=["signed_zeros", "equal_neighbours", "one_sample", "every_sample_differs"])
def test_detector_traces_from_samples_and_from_runs_agree(i3, i4, starts):
    # One run per sample and the data's own runs expand to the same bytes.
    per_sample = traces_of_runs(i3, i4, np.arange(len(i3)))
    traces = traces_of_runs(i3, i4, starts)
    assert len(traces) == len(per_sample) == len(i3)
    assert not traces.i3.flags.writeable and not traces.i4.flags.writeable
    assert not traces.values.flags.writeable and not traces.starts.flags.writeable
