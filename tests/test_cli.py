import hashlib
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hbtsim
from hbtsim import cli
from hbtsim.bench import DetectorTraces, load_detector_traces, save_detector_traces
from hbtsim.cli import (
    BYTES_PER_DELAY,
    BYTES_PER_SAMPLE,
    CONFIG_KEYS,
    build_run_config,
    cmd_analyze,
    cmd_simulate,
    default_run_config,
    main,
    parse_angle,
    parse_config_file,
    pool_workers,
    sweep_grids,
    usable_cpus,
)
from hbtsim.correlate import SCAN_KINDS, g2_cross
from hbtsim.errors import ConfigError, InsufficientDataError
from hbtsim.oracle import predict_g2_cross, solid_angle_of_setup
from hbtsim.pipeline import simulate_detectors

SMALL_CFG = """
# comment line
sim.duration = 2e-3
sim.seed = 42
sweep.phi34_steps = 5
sweep.tau_steps = 2
sweep.tau_max = 2e-5
"""


@pytest.fixture()
def small_cfg_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# columns: ")
    columns = lines[0][len("# columns: ") :].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return columns, rows


# --- config -------------------------------------------------------------------


def test_parse_angle_deg_suffix():
    assert parse_angle("90 deg") == pytest.approx(math.pi / 2)
    assert parse_angle("0.5") == 0.5
    with pytest.raises(ConfigError):
        parse_angle("ninety deg")


def test_parse_config_file(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("bench.phi4 = 90 deg\nsource.t_c = 2e-5\nsim.repeats = 3\n")
    cfg = parse_config_file(path)
    assert cfg.bench.phi4 == pytest.approx(math.pi / 2)
    assert cfg.source.t_c == 2e-5
    assert cfg.sim.repeats == 3


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("bench.phi5 = 1.0\n")
    with pytest.raises(ConfigError, match="bench.phi5"):
        parse_config_file(path)


def test_source_seed_key_is_rejected(tmp_path, capsys):
    path = tmp_path / "a.cfg"
    path.write_text("source.seed = 1\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "source.seed: unknown configuration key" in capsys.readouterr().err


def test_config_invariants_name_fields(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("bench.balance = 0\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "balance" in capsys.readouterr().err

    path.write_text("sweep.tau_max = 1.0\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "tau_max" in capsys.readouterr().err

    path.write_text("sim.repeats = 0\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "repeats" in capsys.readouterr().err

    # --seed is checked like a file value, with or without a config file
    path.write_text("sim.repeats = 2\n")
    for config in ([], ["--config", str(path)]):
        argv = ["simulate", *config, "--seed", "-1", "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        assert "seed must be a non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("line, field", [
    ("sweep.phi34_steps = 1000000000", "sweep.phi34_steps"),
    ("sweep.tau_steps = 1000000000", "sweep.tau_steps"),
    ("sim.duration = 1e3", "sim.duration"),
])
def test_oversized_config_rejected_before_allocating(tmp_path, monkeypatch, line, field):
    # Parsing only: a regression must fail here, not try to run the config.
    # 16 GiB of memory, so that 1e10 samples at 2 B each are oversized on
    # any host.
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 22}
    monkeypatch.setattr("hbtsim.cli.os.sysconf", memory.__getitem__)
    path = tmp_path / "big.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match="physical memory") as info:
        parse_config_file(path)
    assert field in info.value.field


def test_every_command_is_charged_one_bound_per_sample(tmp_path, capsys, monkeypatch):
    # Parsing only.  With 1 GiB of memory, 2e7 samples fit at 2 B each for
    # simulate and sweep alike (simulate was charged 80 B before its CSV
    # writer streamed); 2e10 samples fit for neither.
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 18}
    monkeypatch.setattr("hbtsim.cli.os.sysconf", memory.__getitem__)
    monkeypatch.setattr("hbtsim.cli.run_sweep", lambda *args, **kwargs: pytest.fail("the sweep ran"))
    monkeypatch.setattr("hbtsim.cli.simulate_detectors", lambda *args, **kwargs: pytest.fail("simulate ran"))
    path = tmp_path / "long.cfg"
    out = str(tmp_path / "o.csv")
    path.write_text("sim.duration = 2\n")
    assert 2e7 * 80 > 2 ** 30 > 2e7 * BYTES_PER_SAMPLE
    assert parse_config_file(path).sim.duration == 2.0
    for command, ran in (("simulate", "simulate ran"), ("sweep", "the sweep ran")):
        with pytest.raises(pytest.fail.Exception, match=ran):
            main([command, "--config", str(path), "--out", out])
    path.write_text("sim.duration = 2e3\n")
    for command in ("simulate", "sweep"):
        assert main([command, "--config", str(path), "--out", out]) == 2
        assert "sim.duration: 2e+10 samples per trace need more" in capsys.readouterr().err


def test_config_line_that_is_not_utf8_is_named(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"sim.duration = 2e-3\n# caf\xe9\n")
    with pytest.raises(ConfigError, match="not UTF-8") as info:
        parse_config_file(path)
    assert info.value.field == f"{path}:2"
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert f"{path}:2: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("text", [b"sim.duration = 2e-3\r\nsim.seed = 42\r\n", b"sim.duration = 2e-3\nsim.seed = 42"],
                         ids=["crlf", "no_final_newline"])
def test_config_line_ends(tmp_path, text):
    path = tmp_path / "a.cfg"
    path.write_bytes(text)
    cfg = parse_config_file(path)
    assert (cfg.sim.duration, cfg.sim.seed) == (2e-3, 42)


@pytest.mark.parametrize("line, field", [
    ("sweep.phi34_start = nan", "sweep: phi34_start"),
    ("sweep.phi34_end = inf", "sweep: phi34_end"),
    ("source.amplitude = inf", "source: amplitude"),
    ("source.amplitude = 1e100", "source.amplitude"),
    ("source.amplitude = 1e-100", "source.amplitude"),
    ("source.amplitude = 1e-80", "source.amplitude"),  # subnormal products
    ("bench.balance = 1e300", "bench.balance"),
])
def test_out_of_range_value_names_its_field(tmp_path, capsys, line, field):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_CFG + line + "\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("duration, tau_max, field", [
    ("1e-9", "0", "sim.duration"),
    ("1e-6", "0", "sim.duration"),
    ("3e-6", "1.5e-6", "sweep.tau_max"),  # 30 samples: the window at tau_max is 15
], ids=["1e-9-0", "1e-6-0", "3e-6-1.5e-6"])
def test_record_shorter_than_the_batches_names_sim_duration(tmp_path, capsys, monkeypatch, duration, tau_max, field):
    monkeypatch.setattr("hbtsim.cli.run_sweep", lambda *args, **kwargs: pytest.fail("the sweep ran"))
    path = tmp_path / "short.cfg"
    path.write_text(f"sim.duration = {duration}\nsweep.tau_max = {tau_max}\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert f"{field}: overlap window" in capsys.readouterr().err


def test_record_of_exactly_the_batches_is_accepted(tmp_path):
    path = tmp_path / "short.cfg"
    for duration, grid in (("2e-6", "sweep.tau_max = 0\nsweep.tau_steps = 1"), ("4e-6", "sweep.tau_max = 2e-6")):
        path.write_text(f"sim.duration = {duration}\n{grid}\n")
        parse_config_file(path)


@pytest.mark.parametrize("tau_max", ["5e-5", "1e-7"])
def test_one_delay_step_with_positive_tau_max_names_sweep_tau_steps(tmp_path, capsys, monkeypatch, tau_max):
    monkeypatch.setattr("hbtsim.cli.run_sweep", lambda *args, **kwargs: pytest.fail("the sweep ran"))
    path = tmp_path / "one.cfg"
    path.write_text(f"sim.duration = 2e-3\nsweep.tau_max = {tau_max}\nsweep.tau_steps = 1\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "sweep.tau_steps:" in capsys.readouterr().err


def test_simulate_is_not_checked_against_the_sweep_grid(tmp_path, capsys):
    # 500 samples: too short for the default sweep.tau_max, not for a record
    path = tmp_path / "short.cfg"
    path.write_text("sim.duration = 5e-5\n")
    traces = tmp_path / "traces.csv"
    with pytest.warns(UserWarning, match="duration below"):
        assert main(["simulate", "--config", str(path), "--seed", "3", "--out", str(traces)]) == 0
    assert len(load_detector_traces(traces)) == 500
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "sweep.tau_max: tau=5e-05 exceeds half the record length" in capsys.readouterr().err
    for lines in ("sweep.tau_max = 0\n", "sweep.phi34_start = -1e308\nsweep.phi34_end = 1e308\n"):
        path.write_text("sim.duration = 2e-3\n" + lines)
        assert parse_config_file(path, sweep=False).sim.duration == 2e-3
        with pytest.raises(ConfigError, match="sweep"):
            parse_config_file(path)


def test_sweep_takes_a_grid_end_at_half_the_record(tmp_path):
    # 20000 samples; tau_max snaps to the lag 10000, exactly half the record
    path = tmp_path / "half.cfg"
    path.write_text("sim.duration = 2e-3\nsweep.tau_max = 1.00004e-3\nsweep.phi34_steps = 2\nsweep.tau_steps = 2\n")
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(path), "--seed", "7", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert sorted({float(r[1]) for r in rows}) == [0.0, 10000 * 1e-7]


@pytest.mark.parametrize("lines, message", [
    # 20001 samples; tau_max snaps to the lag 10001, beyond half the record
    ("sim.duration = 2.00014e-3\nsweep.tau_max = 1.00006e-3\n",
     "sweep.tau_max: tau=0.00100006 exceeds half the record length"),
    ("sim.duration = 2e-3\nsweep.tau_max = 1e308\n", "sweep.tau_max: tau=1e+308 exceeds half the record length"),
], ids=["one_lag_beyond_half", "overflowing_lag"])
def test_sweep_delays_beyond_half_the_record_name_sweep_tau_max(tmp_path, capsys, monkeypatch, lines, message):
    monkeypatch.setattr("hbtsim.cli.run_sweep", lambda *args, **kwargs: pytest.fail("the sweep ran"))
    path = tmp_path / "beyond.cfg"
    path.write_text(lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"hbt: error: {message}")


@pytest.mark.parametrize("n, tau_max, steps", [
    (20000, 1.00004e-3, 2),  # end at exactly half the record
    (20001, 1.00006e-3, 11),  # end one lag beyond half
    (2000, 1e-4, 11),  # lag 1000, though 1e-4 > (2000 * 1e-7) / 2 by a rounding
    (2000, 1e-3, 11),
    (40, 2e-6, 11),  # window at the end of exactly the batches
    (30, 1.5e-6, 11),  # window at the end shorter than the batches
    (19, 0.0, 1),  # window at delay 0 shorter than the batches
    (200, 3e-7, 4),
    (200, 3e-7, 11),  # repeated lags
    (200, 4e-8, 2),  # both round to lag 0
    (200, 1e-7, 1),  # one step above 0
    (100, 1e308, 11),  # the end's lag overflows a float
])
def test_sweep_and_analyze_accept_the_same_delay_grids(tmp_path, n, tau_max, steps):
    values = {"sim.duration": n * 1e-7, "sweep.tau_max": tau_max, "sweep.tau_steps": steps}
    try:
        cfg = build_run_config(values)
    except ConfigError:
        sweep_accepts = False
    else:
        assert round(cfg.sim.duration / cfg.sim.dt) == n
        sweep_accepts = True
    path = tmp_path / "const.csv"
    save_detector_traces(DetectorTraces(1e-7, n, [0], [[1.0, 1.0]]), path)
    argv = ["analyze", str(path), "--tau-max", repr(tau_max), "--tau-steps", str(steps),
            "--out", str(tmp_path / "o.csv")]
    assert (main(argv) == 0) == sweep_accepts


@pytest.mark.parametrize("lines, lags", [
    ("sweep.tau_max = 0\n", 1),
    ("sweep.tau_max = 3e-7\n", 4),
    ("sweep.tau_max = 1e-6\nsweep.tau_steps = 12\n", 11),
    ("sweep.tau_max = 4e-8\nsweep.tau_steps = 2\n", 1),  # both round to lag 0
], ids=["zero_tau_max", "three_lags", "one_step_too_many", "below_half_a_sample"])
def test_repeated_delays_name_sweep_tau_steps(tmp_path, capsys, monkeypatch, lines, lags):
    monkeypatch.setattr("hbtsim.cli.run_sweep", lambda *args, **kwargs: pytest.fail("the sweep ran"))
    path = tmp_path / "grid.cfg"
    path.write_text("sim.duration = 2e-3\n" + lines)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hbt: error: sweep.tau_steps: ") and f"({lags} distinct)" in err


@pytest.mark.parametrize("value", ["inf", "1e999"])
def test_infinite_t_max_is_named(tmp_path, capsys, value):
    path = tmp_path / "tmax.cfg"
    path.write_text(f"sim.duration = 2e-3\nsource.t_max = {value}\n")
    for command in ("simulate", "sweep"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == "hbt: error: source: t_max must be finite\n"


@pytest.mark.parametrize("lines, field", [
    ("sweep.phi34_start = -1e308\nsweep.phi34_end = 1e308\n", "sweep.phi34_start, sweep.phi34_end"),
    ("sweep.phi34_start = 1e308\nsweep.phi34_end = -1e308\n", "sweep.phi34_start, sweep.phi34_end"),
    ("bench.phi3 = 1e308\nsweep.phi34_end = 1e308\n", "bench.phi3, sweep.phi34_end"),
    ("bench.phi3 = -1e308\nsweep.phi34_start = -1e308\nsweep.phi34_end = 0\n", "bench.phi3, sweep.phi34_start"),
    ("sweep.phi34_start = -1e308\nsweep.phi34_end = -1e307\n", "bench.phi3, sweep.phi34_start"),
], ids=["span", "negative_span", "phi4_at_end", "phi4_at_start", "lune_at_start"])
def test_sweep_angles_that_overflow_are_named(tmp_path, capsys, monkeypatch, lines, field):
    monkeypatch.setattr("hbtsim.cli.run_sweep", lambda *args, **kwargs: pytest.fail("the sweep ran"))
    path = tmp_path / "angles.cfg"
    path.write_text("sim.duration = 2e-3\n" + lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"hbt: error: {field}: ")


def test_one_delay_step_at_zero_tau_max_is_accepted():
    cfg = build_run_config({"sweep.tau_max": 0.0, "sweep.tau_steps": 1})
    assert list(sweep_grids(cfg)[1]) == [0.0]


def test_readme_config_block_is_the_schema_with_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    lines = [line.split("#")[0].strip() for line in block.splitlines()]
    lines = [line for line in lines if line]
    assert sorted(line.split("=")[0].strip() for line in lines) == sorted(CONFIG_KEYS)
    path = tmp_path / "readme.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert parse_config_file(path) == default_run_config()


# --- simulate -------------------------------------------------------------------


def test_simulate_row_count_and_determinism(tmp_path, small_cfg_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(small_cfg_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(small_cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "# dt=1e-07"
    assert len(lines) == 1 + 20000  # duration/dt rows


def test_simulate_seed_override(tmp_path, small_cfg_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--config", str(small_cfg_path), "--out", str(out1)])
    main(["simulate", "--config", str(small_cfg_path), "--seed", "43", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_simulate_io_failure_is_exit_3(small_cfg_path, capsys):
    assert main(
        ["simulate", "--config", str(small_cfg_path), "--out", "/nonexistent/x.csv"]
    ) == 3
    assert "i/o" in capsys.readouterr().err


# --- sweep ----------------------------------------------------------------------


def test_sweep_schema_and_grid_order(tmp_path, small_cfg_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(small_cfg_path), "--out", str(out)]) == 0
    columns, rows = read_rows(out)
    assert columns == [
        "phi34_rad", "tau_s",
        "g2_cross", "g2_cross_err", "g2_self3", "g2_self3_err",
        "g2_self4", "g2_self4_err", "i3_mean", "i4_mean",
        "oracle_g2_cross", "oracle_g2_self",
    ]
    assert len(rows) == 5 * 2
    cfg = parse_config_file(small_cfg_path)
    phi34s, taus = sweep_grids(cfg)
    expected = [(p, t) for p in phi34s for t in taus]  # phi outer, tau inner
    got = [(float(r[0]), float(r[1])) for r in rows]
    assert got == pytest.approx(expected)


def test_sweep_reruns_and_workers_byte_identical(tmp_path, small_cfg_path):
    outs = [tmp_path / f"s{i}.csv" for i in range(3)]
    main(["sweep", "--config", str(small_cfg_path), "--out", str(outs[0])])
    main(["sweep", "--config", str(small_cfg_path), "--out", str(outs[1])])
    main(["sweep", "--config", str(small_cfg_path), "--workers", "3", "--out", str(outs[2])])
    blob = outs[0].read_bytes()
    assert outs[1].read_bytes() == blob
    assert outs[2].read_bytes() == blob


def test_pool_workers_bounded_by_jobs_and_cpus(monkeypatch):
    assert pool_workers(2, 13, 2) == 2
    assert pool_workers(10 ** 6, 13, 64) == 13
    assert pool_workers(10 ** 6, 13, 4) == 4
    assert pool_workers(8, 13, None) == 1
    assert pool_workers(1, 13, 8) == 1
    monkeypatch.delattr(os, "fork", raising=False)
    assert pool_workers(8, 13, 8) == 1


def test_usable_cpus_are_those_of_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cpus() == 64


def test_sweep_on_one_usable_cpu_runs_serially(tmp_path, small_cfg_path, monkeypatch):
    serial, pinned = tmp_path / "serial.csv", tmp_path / "pinned.csv"
    main(["sweep", "--config", str(small_cfg_path), "--out", str(serial)])

    def no_fork():
        raise AssertionError("a sweep worker was forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "fork", no_fork)
    main(["sweep", "--config", str(small_cfg_path), "--workers", "4", "--out", str(pinned)])
    assert pinned.read_bytes() == serial.read_bytes()


def test_import_and_config_load_no_process_pool(small_cfg_path, tmp_path):
    # Start-up must not pay for a process pool, and a parallel sweep forks
    # its workers without one.
    src = Path(hbtsim.__file__).parents[1]
    pool_modules = "print(*sorted(m for m in sys.modules if m.startswith(('concurrent.futures', 'multiprocessing'))))"
    probes = [
        "hbtsim.cli.parse_config_file(sys.argv[2])",
        f"assert hbtsim.cli.main(['sweep', '--config', sys.argv[2], '--workers', '2', '--out', {str(tmp_path / 'w2.csv')!r}]) == 0",
    ]
    for probe in probes:
        code = f"import sys; sys.path.insert(0, sys.argv[1]); import hbtsim.cli; {probe}; {pool_modules}"
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, str(src), str(small_cfg_path)],
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.split() == []


@pytest.fixture()
def parent_pid(monkeypatch):
    """The test process's pid, with two usable CPUs, so that ``--workers 2``
    forks one child whatever the host; the child runs the second share,
    points 2-4 of the small config."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return os.getpid()


@pytest.mark.parametrize(
    "leave, how", [(lambda: os._exit(9), "exit code 9"), (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {signal.SIGKILL.value}")],
    ids=["exit", "signal"],
)
def test_lost_sweep_worker_is_an_io_error(tmp_path, small_cfg_path, capsys, monkeypatch, parent_pid, leave, how):
    job = cli._sweep_point_job

    def lost_in_child(args):
        if os.getpid() != parent_pid:
            leave()
        return job(args)

    monkeypatch.setattr(cli, "_sweep_point_job", lost_in_child)
    code = main(["sweep", "--config", str(small_cfg_path), "--workers", "2", "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"hbt: i/o error: the sweep worker for points 2-4 left no readable result ({how})\n"


@pytest.mark.parametrize("error", [InsufficientDataError("too few samples"), ConfigError("sim.dt", "too coarse")])
def test_sweep_worker_error_is_that_of_the_serial_sweep(tmp_path, small_cfg_path, capsys, monkeypatch, parent_pid, error):
    job = cli._sweep_point_job

    def fails_at_the_last_point(args):
        if args[1] == 4:
            raise error
        return job(args)

    monkeypatch.setattr(cli, "_sweep_point_job", fails_at_the_last_point)
    messages = []
    for workers in ("1", "2"):
        assert main(["sweep", "--config", str(small_cfg_path), "--workers", workers, "--out", str(tmp_path / "s.csv")]) == 2
        messages.append(capsys.readouterr().err)
    assert messages[1] == messages[0] == f"hbt: error: {error}\n"


def test_failed_fork_is_an_io_error_that_leaves_no_child(tmp_path, small_cfg_path, capsys, monkeypatch):
    fork, forks = os.fork, []

    def fork_once():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", fork_once)
    open_fds = sorted(os.listdir("/proc/self/fd"))
    code = main(["sweep", "--config", str(small_cfg_path), "--workers", "3", "--out", str(tmp_path / "s.csv")])
    assert (code, capsys.readouterr().err) == (3, "hbt: i/o error: [Errno 11] Resource temporarily unavailable\n")
    assert len(forks) == 2
    assert sorted(os.listdir("/proc/self/fd")) == open_fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError])
def test_no_sweep_worker_outlives_a_failed_sweep(small_cfg_path, monkeypatch, parent_pid, error):
    def parent_fails_child_hangs(args):
        if os.getpid() == parent_pid:
            raise error()
        time.sleep(20)
        os._exit(0)

    monkeypatch.setattr(cli, "_sweep_point_job", parent_fails_child_hangs)
    t0 = time.monotonic()
    with pytest.raises(error):
        cli.run_sweep(parse_config_file(small_cfg_path), workers=2)
    assert time.monotonic() - t0 < 10.0  # the child was killed, not awaited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_tracks_oracle(zero_delay_sweep, tmp_path):
    from hbtsim.cli import sweep_rows

    rows = sweep_rows(zero_delay_sweep.cfg, zero_delay_sweep.points)
    devs, residuals = [], []
    for row in rows:
        g2, err, oracle = float(row[2]), float(row[3]), float(row[10])
        devs.append(abs(g2 - oracle) / err)
        residuals.append(g2 - oracle)
        assert float(row[11]) == 1.5  # oracle_g2_self at phi_d = 0
    assert max(devs) < 5.0
    assert sum(1 for d in devs if d > 3.0) <= 1
    assert math.sqrt(np.mean(np.square(residuals))) < 0.03


def test_unbalanced_sweep_tracks_oracle(tmp_path):
    # balance 4 lowers the fringe visibility to 4b/(1+b)^2 = 0.64
    path = tmp_path / "b4.cfg"
    path.write_text(
        "bench.balance = 4\nsweep.phi34_end = 90 deg\nsweep.phi34_steps = 2\n"
        "sweep.tau_max = 0\nsweep.tau_steps = 1\n"
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    columns, rows = read_rows(out)
    for row in rows:
        get = {name: float(cell) for name, cell in zip(columns, row)}
        for kind, oracle in (("cross", "oracle_g2_cross"), ("self3", "oracle_g2_self"),
                             ("self4", "oracle_g2_self")):
            z = (get[f"g2_{kind}"] - get[oracle]) / get[f"g2_{kind}_err"]
            assert abs(z) < 5.0, (kind, get)
    assert [float(r[columns.index("oracle_g2_cross")]) for r in rows] == pytest.approx([0.68, 1.32])


# --- analyze --------------------------------------------------------------------


def test_analyze_round_trip_matches_pipeline_bitwise(tmp_path, small_cfg_path):
    trace_path = tmp_path / "tr.csv"
    out = tmp_path / "an.csv"
    main(["simulate", "--config", str(small_cfg_path), "--out", str(trace_path)])
    assert main(["analyze", str(trace_path), "--out", str(out)]) == 0
    cfg = parse_config_file(small_cfg_path)
    traces = simulate_detectors(
        cfg.source, cfg.bench, cfg.sim.duration, cfg.sim.dt, cfg.sim.seed
    )
    expected = g2_cross(traces, 0.0).value
    columns, rows = read_rows(out)
    assert len(rows) == 1  # default delay grid is [0]
    got = float(rows[0][columns.index("g2_cross")])
    assert got == expected  # bit-for-bit


# SHA-256 of `hbt simulate --seed 7` and of `hbt analyze --tau-max 5e-5` on
# its output at sim.duration = 2e-3 (numpy 2.4, x86-64).  The simulate bytes
# are those written before the trace CSV became run-wise.  The analyze bytes
# are those of the batch errors taken from one window-centred product per
# kind; that moved 19 and 31 of the 99 cells from the batch-centred
# products, by at most 8.5e-16 relative (the per-segment sums had moved
# them within 1e-15 of the per-sample sums before).  The "unbalanced" pair
# moved when the bench became one amplitude table (``bench.amplitudes``):
# phi_d now rides the S2 -> D3 path only, where it used to cancel around the
# loop, and at balance != 1 the product sqrt(b) e^{-i phi} is rounded in a
# new order (at phi_d = 0, b = 0.5 and phi34 = 0.7 rad, 952 of the 7426 run
# values of a 2e-2 s record moved, by at most 1.5e-15 relative; at b = 1 and
# b = 4 none moved).
GOLDEN_DIGESTS = {
    "default": ("", "92fc70970583f3597ebdffec49b4e24a0105b5ca300aaf653de66a439121fbbc",
                "e60bac01024579f5484fb01da8f109b8873f350b6cad11cda20022223fa4580b"),
    "unbalanced": ("bench.balance = 0.5\nbench.phi_d = 30 deg\n",
                   "b58a6ea0b9a043077eb1cf2baef28c8dc25678b6b531e0ad9a84fb0d013532b2",
                   "1ea8b845199e2ce5329cc59b7e356694eddcef68342da1056d2feb8171286304"),
}


@pytest.mark.parametrize("lines, simulate_digest, analyze_digest", GOLDEN_DIGESTS.values(), ids=GOLDEN_DIGESTS)
def test_simulate_and_analyze_bytes_are_pinned(tmp_path, lines, simulate_digest, analyze_digest):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration = 2e-3\n" + lines)
    traces, g2 = tmp_path / "traces.csv", tmp_path / "g2.csv"
    assert main(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(traces)]) == 0
    assert main(["analyze", str(traces), "--tau-max", "5e-5", "--out", str(g2)]) == 0
    assert hashlib.sha256(traces.read_bytes()).hexdigest() == simulate_digest
    assert hashlib.sha256(g2.read_bytes()).hexdigest() == analyze_digest


# SHA-256 of `hbt sweep --seed 7` at sim.duration = 2e-3, on the default
# delay grid and at zero delay with three repeats (numpy 2.4, x86-64), as
# written since the batch errors come from one window-centred product per
# kind: 338 of 1716 and 29 of 156 cells moved, by at most 8.3e-16 relative.
GOLDEN_SWEEP_DIGESTS = {
    "default": ("", "adf56eeb537de191bdf22e3ce003faf8daa3b7f170ac4b9876dbb6b3f9d67974"),
    "zero_delay": ("sim.repeats = 3\nsweep.tau_max = 0\nsweep.tau_steps = 1\n",
                   "2ca61034687b030066d37de7a034e40e1f9a581b2a55e4f6a71913c4083a0f27"),
}


@pytest.mark.parametrize("lines, digest", GOLDEN_SWEEP_DIGESTS.values(), ids=GOLDEN_SWEEP_DIGESTS)
def test_sweep_bytes_are_pinned(tmp_path, lines, digest):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration = 2e-3\n" + lines)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_analyze_constant_file_gives_unity(tmp_path):
    path = tmp_path / "const.csv"
    traces = DetectorTraces(1e-7, 500, [0], [[0.2, 0.4]])
    save_detector_traces(traces, path)
    out = tmp_path / "out.csv"
    assert main(["analyze", str(path), "--taus", "0,1e-6", "--out", str(out)]) == 0
    columns, rows = read_rows(out)
    for row in rows:
        for kind in ("g2_cross", "g2_self3", "g2_self4"):
            assert float(row[columns.index(kind)]) == 1.0


def test_analyze_two_row_file_with_delay_is_exit_2(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text("# dt=1e-07\n0.1,0.2\n0.1,0.2\n")
    out = tmp_path / "out.csv"
    assert main(["analyze", str(path), "--taus", "1e-7", "--out", str(out)]) == 2
    assert "batches" in capsys.readouterr().err


def test_analyze_malformed_csv_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("# dt=1e-07\n0.1,0.2\n0.1,0.2\nbogus\n0.1,0.2\n")
    assert main(["analyze", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "line 4" in capsys.readouterr().err


def test_analyze_line_that_is_not_utf8_is_named(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"# dt=1e-07\n0.1,0.2\n0.1,0.2\n0.1,0.2\xff\n0.1,0.2\n")
    assert main(["analyze", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "line 4: not UTF-8" in capsys.readouterr().err


def test_analyze_missing_dt_header_is_exit_2(tmp_path, capsys):
    path = tmp_path / "nodt.csv"
    path.write_text("0.1,0.2\n0.1,0.2\n")
    assert main(["analyze", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "dt" in capsys.readouterr().err


def test_analyze_off_grid_delay_is_exit_2(tmp_path, capsys):
    path = tmp_path / "const.csv"
    save_detector_traces(DetectorTraces(1e-7, 100, [0], [[1.0, 1.0]]), path)
    assert main(
        ["analyze", str(path), "--taus", "1.5e-7", "--out", str(tmp_path / "o.csv")]
    ) == 2
    assert "multiple of dt" in capsys.readouterr().err


@pytest.mark.parametrize("n, flag, taus, message", [
    (2000, "--taus", "0,-1e-7", "tau must be finite and >= 0"),
    (2000, "--taus", "nan", "tau must be finite and >= 0"),
    (2000, "--taus", "0,1.5e-7", "tau=1.5e-07 is not an integer multiple of dt=1e-07"),
    (2000, "--taus", "1e-3", "tau=0.001 exceeds half the record length"),
    (30, "--taus", "0,1.5e-6", "overlap window of 15 samples is shorter than 20 batches"),
    (2000, "--tau-max", "1e-3", "exceeds half the record length"),
    (2000, "--taus", "1e308", "tau=1e+308 exceeds half the record length"),
    (2000, "--tau-max", "1e308", "tau=1e+308 exceeds half the record length"),
], ids=["negative", "nan", "off_grid", "beyond_half", "short_window", "tau_max_beyond_half",
        "overflowing_lag", "tau_max_overflowing_lag"])
def test_analyze_delays_refused_by_the_record_name_their_flag(tmp_path, capsys, monkeypatch, n, flag, taus, message):
    path = tmp_path / "const.csv"
    save_detector_traces(DetectorTraces(1e-7, n, [0], [[1.0, 1.0]]), path)
    monkeypatch.setattr("hbtsim.cli.scan", lambda *args: pytest.fail("scanned before the delays were checked"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(path), flag, taus, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"hbt: error: {flag}: ") and message in err


def test_analyze_record_shorter_than_the_batches_names_the_file(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    save_detector_traces(DetectorTraces(1e-7, 19, [0], [[1.0, 1.0]]), path)
    assert main(["analyze", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == f"hbt: error: {path}: overlap window of 19 samples is shorter than 20 batches\n"


def test_analyze_tau_max_grid_is_the_sweep_grid(tmp_path, capsys):
    path = tmp_path / "const.csv"
    save_detector_traces(DetectorTraces(1e-7, 200, [0], [[1.0, 1.0]]), path)
    out = tmp_path / "o.csv"
    argv = ["analyze", str(path), "--tau-max", "3.3e-7", "--tau-steps", "4", "--out", str(out)]
    assert main(argv) == 0
    _, rows = read_rows(out)
    _, taus = sweep_grids(build_run_config({"sweep.tau_max": 3.3e-7, "sweep.tau_steps": 4}))
    assert [float(r[0]) for r in rows] == list(taus)

    assert main(["analyze", str(path), "--tau-max", "inf", "--out", str(out)]) == 2
    assert "--tau-max" in capsys.readouterr().err


def test_analyze_tau_steps_bounded_before_allocating(tmp_path, capsys, monkeypatch):
    path = tmp_path / "const.csv"
    save_detector_traces(DetectorTraces(1e-7, 200, [0], [[1.0, 1.0]]), path)

    def no_grid(*args):
        raise AssertionError("the delay grid was built before its size was checked")

    monkeypatch.setattr("hbtsim.cli.delay_grid", no_grid)
    argv = ["analyze", str(path), "--tau-max", "1e-5", "--tau-steps", "1000000000",
            "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    assert "--tau-steps" in capsys.readouterr().err


def test_analyze_one_delay_step_with_positive_tau_max_is_exit_2(tmp_path, capsys):
    path = tmp_path / "const.csv"
    save_detector_traces(DetectorTraces(1e-7, 200, [0], [[1.0, 1.0]]), path)
    out = tmp_path / "o.csv"
    argv = ["analyze", str(path), "--tau-steps", "1", "--out", str(out)]
    assert main([*argv, "--tau-max", "1e-7"]) == 2
    assert "--tau-steps:" in capsys.readouterr().err
    assert main([*argv, "--tau-max", "0"]) == 0
    assert [float(r[0]) for r in read_rows(out)[1]] == [0.0]


def test_analyze_repeated_delays_are_exit_2(tmp_path, capsys):
    path = tmp_path / "const.csv"
    save_detector_traces(DetectorTraces(1e-7, 200, [0], [[1.0, 1.0]]), path)
    out = tmp_path / "o.csv"
    argv = ["analyze", str(path), "--tau-max", "3e-7", "--out", str(out)]
    assert main([*argv, "--tau-steps", "11"]) == 2
    assert capsys.readouterr().err.startswith("hbt: error: --tau-steps: 11 steps from 0 to 3e-07 s repeat delays")
    assert not out.exists()
    assert main([*argv, "--tau-steps", "4"]) == 0
    assert [float(r[0]) for r in read_rows(out)[1]] == [0.0, 1e-7, 2e-7, 3e-7]


@pytest.mark.parametrize("starts, i3", [([0], [0.0]), ([0, 100], [0.0, 0.5])], ids=["column", "one_batch"])
def test_analyze_dark_detector_is_exit_2(tmp_path, capsys, starts, i3):
    # i3 is dark over its first run; 2000 samples at tau = 0 make 20 batches of 100
    path = tmp_path / "dark.csv"
    save_detector_traces(DetectorTraces(1e-7, 2000, starts, [[a, 0.5] for a in i3]), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", str(path), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "zero mean intensity" in capsys.readouterr().err


@pytest.mark.parametrize("taus", ["", ",", " , "])
def test_analyze_empty_delay_list_is_exit_2(tmp_path, capsys, taus):
    path = tmp_path / "const.csv"
    save_detector_traces(DetectorTraces(1e-7, 100, [0], [[1.0, 1.0]]), path)
    out = tmp_path / "o.csv"
    assert main(["analyze", str(path), "--taus", taus, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "hbt: error: --taus: no delays given\n"
    assert not out.exists()


def test_analyze_missing_file_is_exit_3(tmp_path):
    assert main(
        ["analyze", str(tmp_path / "ghost.csv"), "--out", str(tmp_path / "o.csv")]
    ) == 3


def test_analyze_kind_flags(tmp_path):
    path = tmp_path / "const.csv"
    save_detector_traces(DetectorTraces(1e-7, 100, [0], [[1.0, 1.0]]), path)
    out = tmp_path / "out.csv"
    assert main(["analyze", str(path), "--cross", "--out", str(out)]) == 0
    columns, _ = read_rows(out)
    assert columns == ["tau_s", "g2_cross", "g2_cross_err", "i3_mean", "i4_mean"]


def test_analyze_each_kind_alone_is_its_columns_of_all_kinds(tmp_path, small_cfg_path):
    trace_path = tmp_path / "tr.csv"
    main(["simulate", "--config", str(small_cfg_path), "--out", str(trace_path)])
    every = tmp_path / "all.csv"
    assert main(["analyze", str(trace_path), "--tau-max", "2e-5", "--out", str(every)]) == 0
    columns, rows = read_rows(every)
    assert len(rows) == 11
    for kind in SCAN_KINDS:
        out = tmp_path / f"{kind}.csv"
        assert main(["analyze", str(trace_path), "--tau-max", "2e-5", f"--{kind}", "--out", str(out)]) == 0
        alone_columns, alone_rows = read_rows(out)
        picks = [columns.index(c) for c in alone_columns]
        assert alone_rows == [[row[i] for i in picks] for row in rows]  # the same text


# --- memory --------------------------------------------------------------------


def traced_peak(run) -> int:
    """The tracemalloc peak of ``run()``, after an untraced call has made
    the one-time allocations."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_peaks_below_ten_bytes_per_sample(tmp_path):
    cfg = default_run_config()
    n = round(cfg.sim.duration / cfg.sim.dt)
    assert traced_peak(lambda: cmd_simulate(cfg, tmp_path / "tr.csv")) < 10 * n


def test_load_and_analyze_peak_below_ten_bytes_per_sample(tmp_path):
    cfg = default_run_config()
    n = round(cfg.sim.duration / cfg.sim.dt)
    path = tmp_path / "tr.csv"
    cmd_simulate(cfg, path)
    _, taus = sweep_grids(cfg)
    analyze = lambda: cmd_analyze(load_detector_traces(path), list(taus), list(SCAN_KINDS), tmp_path / "g2.csv")
    assert traced_peak(lambda: load_detector_traces(path)) < 10 * n
    assert traced_peak(analyze) < 10 * n


def test_analyze_delays_cost_at_least_their_bound(tmp_path):
    path = tmp_path / "tr.csv"
    cmd_simulate(build_run_config({"sim.duration": 2e-4}), path)
    out = str(tmp_path / "g2.csv")

    def peak(delays):
        argv = ["analyze", str(path), "--tau-max", f"{(delays - 1) * 1e-7!r}", "--tau-steps", str(delays)]

        def analyze():
            assert main([*argv, "--out", out]) == 0

        return traced_peak(analyze)

    # The bound that --tau-steps is checked against is a lower bound.
    assert (peak(220) - peak(20)) / 200 >= BYTES_PER_DELAY


# --- predict / usage ---------------------------------------------------------------


def test_predict_report(capsys):
    assert main(["predict", "--phi3", "0", "--phi4", "90 deg", "--phi-d", "0"]) == 0
    out = capsys.readouterr().out
    assert "omega   = 6.28318531 sr" in out
    assert "phi_g   = 3.14159265 rad" in out
    assert "g2_cross(tau=0) = 1.5" in out
    assert "g2_self(tau=0)  = 1.5" in out
    assert "10 of 16 terms vanish" in out
    assert out.count(" geometric ") == 2
    # at a dynamical phase only the cross line moves, and the audit follows it
    assert main(["predict", "--phi3", "0", "--phi4", "30 deg", "--phi-d", "90 deg"]) == 0
    lines = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines() if " = " in line)
    assert lines["g2_self(tau=0) "] == "1.5"
    cross = predict_g2_cross(math.pi / 2, solid_angle_of_setup(0.0, math.radians(30)))
    assert lines["g2_cross(tau=0)"] == f"{cross:.9g}"
    assert f"{float(lines['survivor sum']):.9g}" == lines["g2_cross(tau=0)"]


def test_predict_degenerate_lune(capsys):
    assert main(["predict", "--phi3", "0.4", "--phi4", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "g2_cross(tau=0) = 0.5" in out


def test_predict_angles_that_overflow_are_exit_2(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["predict", "--phi3=1e308", "--phi4=-1e308"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hbt: error: ") and "phi3" in err and "phi4" in err


def test_usage_errors_are_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["predict", "--phi3", "nonsense"]) == 2
    capsys.readouterr()


def test_default_config_is_valid():
    cfg = default_run_config()
    cfg.validate()
    assert cfg.sweep.phi34_steps == 13
    assert cfg.sim.duration == pytest.approx(2000 * cfg.source.t_c)
