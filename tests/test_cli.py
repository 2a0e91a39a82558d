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
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hbtsim
from hbtsim import cli
from hbtsim.bench import DetectorTraces, load_detector_traces, save_detector_traces
from hbtsim.cli import (
    BYTES_PER_DELAY,
    BYTES_PER_DWELL,
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
from hbtsim.oracle import no_jump_probability, predict_g2, predict_g2_cross, solid_angle_of_setup
from hbtsim.pipeline import simulate_detectors
from hbtsim.source import truncated_dwell_mean

SMALL_CFG = """
# comment line
sim.duration = 2e-3
sim.seed = 42
sweep.phi34_steps = 5
sweep.tau_steps = 2
sweep.tau_max = 2e-5
"""

# The diagnostic line of a record under 100 source.t_c, at the default t_c.
SHORT_RECORD = "sim.duration: below 100 source.t_c = 0.001 s; the error bars will understate the noise"


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


def test_config_key_set_twice_is_exit_2(tmp_path, capsys):
    path = tmp_path / "a.cfg"
    path.write_text("sim.duration = 2e-3\n# comment\nsim.seed = 1\nsim.duration = 4e-3\n")
    with pytest.raises(ConfigError) as info:
        parse_config_file(path)
    assert info.value.field == f"{path}:4"
    assert info.value.message == "sim.duration already set on line 1"
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"hbt: error: {path}:4: sim.duration already set on line 1\n"
    assert not out.exists()
    # --seed is an override, not a second line: it still wins over sim.seed.
    path.write_text("sim.seed = 1\n")
    assert parse_config_file(path, {"sim.seed": 7}).sim.seed == 7


def test_source_seed_key_is_rejected(tmp_path, capsys):
    path = tmp_path / "a.cfg"
    for key in ("source.seed", "source.amplitude"):
        path.write_text(f"{key} = 1\n")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert f"{key}: unknown configuration key" in capsys.readouterr().err


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
    cfg = parse_config_file(path)
    with pytest.raises(ConfigError, match="physical memory") as info:
        cfg.validate()
        sweep_grids(cfg)
    assert field in info.value.field


def test_every_command_is_charged_one_bound_per_sample(tmp_path, capsys, monkeypatch):
    # Parsing only.  With 1 GiB of memory, 2e7 samples fit at 2 B each for
    # simulate and sweep alike (simulate was charged 80 B before its CSV
    # writer streamed); 2e10 samples fit for neither.
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 18}
    monkeypatch.setattr("hbtsim.cli.os.sysconf", memory.__getitem__)
    monkeypatch.setattr("hbtsim.cli._sweep_point_job", lambda job: pytest.fail("a sweep point ran"))
    monkeypatch.setattr("hbtsim.cli.simulate_detectors", lambda *args, **kwargs: pytest.fail("simulate ran"))
    path = tmp_path / "long.cfg"
    out = str(tmp_path / "o.csv")
    path.write_text("sim.duration = 2\n")
    assert 2e7 * 80 > 2 ** 30 > 2e7 * BYTES_PER_SAMPLE
    assert parse_config_file(path).sim.duration == 2.0
    for command, ran in (("simulate", "simulate ran"), ("sweep", "a sweep point ran")):
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
])
def test_out_of_range_value_names_its_field(tmp_path, capsys, line, field):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_CFG + line + "\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert field in capsys.readouterr().err


def test_the_largest_balance_runs_every_record_command(tmp_path):
    # Source 2 outshines source 1 by 1.8e308, so the visibility 4b/(1+b)^2
    # rounds to 0: every estimate and every oracle cell is 1, and the mean
    # intensities (1 + b)/4 stay finite.
    cfg = tmp_path / "bright.cfg"
    cfg.write_text(f"{SMALL_CFG}bench.balance = {sys.float_info.max!r}\n")
    traces, g2, sweep = tmp_path / "traces.csv", tmp_path / "g2.csv", tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(traces)]) == 0
        assert main(["analyze", str(traces), "--tau-max", "2e-5", "--tau-steps", "2", "--out", str(g2)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(sweep)]) == 0
    for path, ones in ((g2, ["g2_cross", "g2_self3", "g2_self4"]),
                       (sweep, ["g2_cross", "g2_self3", "g2_self4", "oracle_g2_cross", "oracle_g2_self"])):
        columns, rows = read_rows(path)
        cells = np.array(rows, dtype=float)
        assert np.isfinite(cells).all()
        assert (cells[:, [columns.index(name) for name in ones]] == 1.0).all()
        means = cells[:, [columns.index("i3_mean"), columns.index("i4_mean")]]
        assert np.allclose(means, sys.float_info.max / 4.0, rtol=1e-12)


@pytest.mark.parametrize("duration, tau_max, field", [
    ("1e-9", "0", "sim.duration"),
    ("1e-6", "0", "sim.duration"),
    ("3e-6", "1.5e-6", "sweep.tau_max"),  # 30 samples: the window at tau_max is 15
], ids=["1e-9-0", "1e-6-0", "3e-6-1.5e-6"])
def test_record_shorter_than_the_batches_names_sim_duration(tmp_path, capsys, monkeypatch, duration, tau_max, field):
    monkeypatch.setattr("hbtsim.cli._sweep_point_job", lambda job: pytest.fail("a sweep point ran"))
    path = tmp_path / "short.cfg"
    path.write_text(f"sim.duration = {duration}\nsweep.tau_max = {tau_max}\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert f"{field}: overlap window" in capsys.readouterr().err


def test_record_of_exactly_the_batches_is_accepted(tmp_path):
    path = tmp_path / "short.cfg"
    for duration, grid in (("2e-6", "sweep.tau_max = 0\nsweep.tau_steps = 1"), ("4e-6", "sweep.tau_max = 2e-6")):
        path.write_text(f"sim.duration = {duration}\n{grid}\n")
        sweep_grids(parse_config_file(path))


@pytest.mark.parametrize("tau_max", ["5e-5", "1e-7"])
def test_one_delay_step_with_positive_tau_max_names_sweep_tau_steps(tmp_path, capsys, monkeypatch, tau_max):
    monkeypatch.setattr("hbtsim.cli._sweep_point_job", lambda job: pytest.fail("a sweep point ran"))
    path = tmp_path / "one.cfg"
    path.write_text(f"sim.duration = 2e-3\nsweep.tau_max = {tau_max}\nsweep.tau_steps = 1\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "sweep.tau_steps:" in capsys.readouterr().err


def test_simulate_is_not_checked_against_the_sweep_grid(tmp_path, capsys):
    # 500 samples: too short for the default sweep.tau_max, not for a record
    path = tmp_path / "short.cfg"
    path.write_text("sim.duration = 5e-5\n")
    traces = tmp_path / "traces.csv"
    assert main(["simulate", "--config", str(path), "--seed", "3", "--out", str(traces)]) == 0
    assert capsys.readouterr().err == f"hbt: warning: {SHORT_RECORD}\n"
    assert len(load_detector_traces(traces)) == 500
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "sweep.tau_max: tau=5e-05 exceeds half the record length" in capsys.readouterr().err
    for lines in ("sweep.tau_max = 0\n", "sweep.phi34_start = -1e308\nsweep.phi34_end = 1e308\n"):
        path.write_text("sim.duration = 2e-3\n" + lines)
        cfg = parse_config_file(path)
        assert cfg.sim.duration == 2e-3
        with pytest.raises(ConfigError, match="sweep"):
            sweep_grids(cfg)


@pytest.mark.parametrize("lines", [
    # Dwells of 2.9e-20 s on average: 6.9e17 per trace at the default
    # sim.duration, whose 2e5 samples pass their own charge.
    "source.t_c = 2e-20\nsource.t_min = 1e-20\nsource.t_max = 1e-19\n",
    # Subnormal dwells: sim.duration / mean dwell overflows to inf.
    "source.t_c = 1e-323\nsource.t_min = 5e-324\nsource.t_max = 1.5e-323\n",
], ids=["t_c_2e-20", "subnormal_t_c"])
def test_dwells_beyond_memory_are_refused_before_any_trace(tmp_path, capsys, monkeypatch, lines):
    # 1 PiB of memory, so that the refusal holds on any host.
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 38}
    monkeypatch.setattr("hbtsim.cli.os.sysconf", memory.__getitem__)
    for where in ("hbtsim.cli.simulate_detectors", "hbtsim.pipeline.simulate_detectors"):
        monkeypatch.setattr(where, lambda *args, **kwargs: pytest.fail("a trace was simulated"))
    path = tmp_path / "fast.cfg"
    path.write_text(lines)
    for command in ("simulate", "sweep"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hbt: error: sim.duration, source.t_c: ")
        assert "phase dwells per trace need more than the 1.05e+06 GiB" in err


RECORDS_BEYOND_MEMORY = pytest.mark.parametrize("lines", [
    "sim.duration = 1e4\n",  # 1e11 samples
    "source.t_c = 2e-20\nsource.t_min = 1e-20\nsource.t_max = 1e-19\n",  # 6.9e17 dwells
], ids=["duration_1e4", "t_c_2e-20"])


@RECORDS_BEYOND_MEMORY
def test_predict_is_not_charged_for_a_record(tmp_path, capsys, monkeypatch, lines):
    # predict makes no trace: a config whose record would not fit in 16 GiB
    # prints what the defaults print.
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 22}
    monkeypatch.setattr("hbtsim.cli.os.sysconf", memory.__getitem__)
    assert main(["predict"]) == 0
    default = capsys.readouterr().out
    path = tmp_path / "long.cfg"
    path.write_text(lines)
    assert main(["predict", "--config", str(path)]) == 0
    assert capsys.readouterr() == (default, "")


@RECORDS_BEYOND_MEMORY
def test_simulate_is_charged_for_a_record_that_predict_is_not(tmp_path, capsys, monkeypatch, lines):
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 22}
    monkeypatch.setattr("hbtsim.cli.os.sysconf", memory.__getitem__)
    monkeypatch.setattr("hbtsim.cli.simulate_detectors", lambda *args, **kwargs: pytest.fail("simulate ran"))
    path = tmp_path / "long.cfg"
    path.write_text(lines)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "need more than the 16 GiB of physical memory" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("lines, field", [
    ("sweep.tau_max = 1.0\n", "sweep.tau_max"),
    ("sweep.tau_max = 1e-7\nsweep.tau_steps = 1\n", "sweep.tau_steps"),
    ("sweep.phi34_start = -1e308\nsweep.phi34_end = 1e308\n", "sweep.phi34_start, sweep.phi34_end"),
    ("sweep.phi34_steps = 1000000000000\n", "sweep.phi34_steps x sweep.tau_steps"),
    ("sim.repeats = 9223372036854775807\n", "sim.repeats x sweep.tau_steps"),
], ids=["tau_max", "tau_steps", "phi34_span", "rows", "repeats"])
def test_predict_is_not_checked_against_the_sweep_grid(tmp_path, capsys, monkeypatch, lines, field):
    monkeypatch.setattr("hbtsim.cli._sweep_point_job", lambda job: pytest.fail("a sweep point ran"))
    path = tmp_path / "grid.cfg"
    path.write_text("sim.duration = 2e-3\n" + lines)
    assert main(["predict", "--config", str(path)]) == 0
    assert "g2_cross(tau=0) = " in capsys.readouterr().out
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"hbt: error: {field}: ")


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
    monkeypatch.setattr("hbtsim.cli._sweep_point_job", lambda job: pytest.fail("a sweep point ran"))
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
        sweep_grids(cfg)
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
    monkeypatch.setattr("hbtsim.cli._sweep_point_job", lambda job: pytest.fail("a sweep point ran"))
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
], ids=["span", "negative_span", "phi4_at_end", "phi4_at_start"])
def test_sweep_angles_that_overflow_are_named(tmp_path, capsys, monkeypatch, lines, field):
    monkeypatch.setattr("hbtsim.cli._sweep_point_job", lambda job: pytest.fail("a sweep point ran"))
    path = tmp_path / "angles.cfg"
    path.write_text("sim.duration = 2e-3\n" + lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"hbt: error: {field}: ")


def test_sweep_of_angles_whose_lune_overflows_has_finite_cells(tmp_path):
    # 4*phi34 overflows at phi34 = -1e308, but nothing in the sweep forms
    # it: the oracle reads the bench's amplitude table.
    path = tmp_path / "angles.cfg"
    path.write_text("sim.duration = 2e-3\nsweep.phi34_start = -1e308\nsweep.phi34_end = -1e307\n"
                    "sweep.phi34_steps = 2\nsweep.tau_steps = 2\n")
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    rows = np.array(read_rows(out)[1], dtype=float)
    assert rows.shape == (4, 12) and np.isfinite(rows).all()
    assert list(rows[:, 0]) == [-1e308, -1e308, -1e307, -1e307]


def test_one_delay_step_at_zero_tau_max_is_accepted():
    cfg = build_run_config({"sweep.tau_max": 0.0, "sweep.tau_steps": 1})
    assert list(sweep_grids(cfg)[1]) == [0.0]


def test_readme_config_block_is_the_schema_with_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    keys = [line.split("=")[0].strip() for line in block.splitlines() if line and not line.startswith("#")]
    assert sorted(keys) == sorted(CONFIG_KEYS)
    path = tmp_path / "readme.cfg"
    path.write_text(block)
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


def test_platform_without_sysconf_or_fork_runs_every_command(tmp_path, small_cfg_path, monkeypatch):
    # Physical memory unknown is no bound, and the sweep runs serially.
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(["sweep", "--config", str(small_cfg_path), "--out", str(serial)]) == 0
    monkeypatch.delattr(os, "sysconf")
    monkeypatch.delattr(os, "fork")
    assert main(["simulate", "--config", str(small_cfg_path), "--out", str(tmp_path / "traces.csv")]) == 0
    assert main(["sweep", "--config", str(small_cfg_path), "--workers", "2", "--out", str(parallel)]) == 0
    assert parallel.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("error", [ValueError("unrecognized configuration name"), OSError(22, "Invalid argument")],
                         ids=["ValueError", "OSError"])
def test_unknown_physical_memory_is_no_bound(monkeypatch, error):
    def sysconf(name):
        raise error

    monkeypatch.setattr(os, "sysconf", sysconf)
    cli.check_fits_in_memory("sim.duration", 1e30, "samples per trace", BYTES_PER_SAMPLE)


def loaded_by_commands(prefixes: tuple[str, ...], cfg_path, out_dir) -> list[str]:
    """The modules named by ``prefixes`` that a fresh ``python -I`` holds
    after importing ``hbtsim.cli`` and loading ``cfg_path``, and after a
    ``--workers 2`` sweep of it."""
    src = Path(hbtsim.__file__).parents[1]
    show = f"print(*sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    probes = [
        "hbtsim.cli.parse_config_file(sys.argv[2])",
        f"assert hbtsim.cli.main(['sweep', '--config', sys.argv[2], '--workers', '2', '--out', {str(out_dir / 'w2.csv')!r}]) == 0",
    ]
    loaded = []
    for probe in probes:
        code = f"import sys; sys.path.insert(0, sys.argv[1]); import hbtsim.cli; {probe}; {show}"
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, str(src), str(cfg_path)],
            capture_output=True, text=True, check=True,
        )
        loaded += done.stdout.split()
    return loaded


def test_import_and_config_load_no_process_pool(small_cfg_path, tmp_path):
    # Start-up must not pay for a process pool, and a parallel sweep forks
    # its workers without one.
    assert loaded_by_commands(("concurrent.futures", "multiprocessing"), small_cfg_path, tmp_path) == []


def test_command_path_loads_no_geometry_or_signal(small_cfg_path, tmp_path):
    # The command path does no complex scalar maths, and only a failed sweep
    # needs `signal`: a config load and a parallel sweep import neither.
    assert loaded_by_commands(("cmath", "signal"), small_cfg_path, tmp_path) == []


@pytest.fixture()
def parent_pid(monkeypatch):
    """The test process's pid, with two usable CPUs, so that ``--workers 2``
    forks one child whatever the host; the child runs the second share,
    points 2-4 of the small config."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return os.getpid()


def test_parallel_sweep_of_a_short_record_warns_once(tmp_path, capfd, parent_pid):
    path = tmp_path / "short.cfg"
    path.write_text("sim.duration = 5e-4\nsweep.tau_max = 0\nsweep.tau_steps = 1\nsweep.phi34_steps = 5\n")
    outs = [tmp_path / f"w{workers}.csv" for workers in (1, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for workers, out in zip((1, 2), outs):
            assert main(["sweep", "--config", str(path), "--workers", str(workers), "--out", str(out)]) == 0
            assert capfd.readouterr() == ("", f"hbt: warning: {SHORT_RECORD}\n")
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_refused_parallel_sweep_forks_nothing(tmp_path, capsys, monkeypatch, parent_pid):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a sweep worker was forked"))
    path = tmp_path / "beyond.cfg"
    path.write_text("sim.duration = 2e-3\nsweep.tau_max = 1.1e-3\n")
    assert main(["sweep", "--config", str(path), "--workers", "2", "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.startswith("hbt: error: sweep.tau_max: ")


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


@pytest.mark.parametrize("error", [InsufficientDataError("too few samples"), ConfigError("sim.duration", "too short")])
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
    from hbtsim.cli import run_sweep, sweep_rows

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

    # On the default delay grid each row's oracle is predict_g2 at its
    # delay, and every kind sits within its error bars of it (a z follows
    # Student's t with 19 dof: |z| > 6 has p = 9e-6 per cell).
    cfg = default_run_config()
    z = []
    for row in sweep_rows(cfg, run_sweep(cfg)):
        phi34, tau, *cells = map(float, row)
        bench = replace(cfg.bench, phi4=cfg.bench.phi3 + phi34)
        oracle = predict_g2(bench, no_jump_probability(cfg.source, tau) ** 2)
        assert cells[8:] == [oracle["cross"], oracle["self3"]]
        z += [(cells[0] - oracle["cross"]) / cells[1], (cells[2] - oracle["self3"]) / cells[3],
              (cells[4] - oracle["self4"]) / cells[5]]
    assert len(z) == 13 * 11 * 3
    assert np.abs(z).max() < 6.0
    assert abs(np.mean(z)) < 0.2 and 0.8 < np.std(z) < 1.3


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
# delay grid and at zero delay with three repeats (numpy 2.4, x86-64).  The
# "zero_delay" bytes are those written since the batch errors come from one
# window-centred product per kind (29 of 156 cells moved then, by at most
# 8.3e-16 relative).  The two digests on the default delay grid moved when
# the oracle columns became per row (``oracle.predict_g2`` at P(tau)^2):
# only the two oracle cells of the tau > 0 rows changed (130 rows each; in
# "unbalanced_repeats" the cross cell of the 50 rows where the fringe sits
# at 1 kept its bytes), while every estimate cell and every tau = 0 row kept
# its bytes.  All three moved again when the oracle became the harmonic form
# of the amplitude table, 1 + 2 p2 Re(r_a conj(r_b)): the first ten columns
# kept their bytes, and 12 of 286, 7 of 26 and 26 of 286 oracle cells moved,
# each by at most 2 ulp.
GOLDEN_SWEEP_DIGESTS = {
    "default": ("", "be15b9b42b89a6c246013d7aaecbbea421e963d7a019e1b74cc71601772e56c8"),
    "zero_delay": ("sim.repeats = 3\nsweep.tau_max = 0\nsweep.tau_steps = 1\n",
                   "590fc743d16b052044626c5c68dcffd4677d0f8acfbb5dc8697c8a2ae0f951d6"),
    "unbalanced_repeats": ("bench.phi_d = 90 deg\nbench.balance = 0.5\nsim.repeats = 2\n",
                           "6abdd153eb2c0d13a85888437f7e224a05dac2a73a37d07537e91cbd6d3ec1de"),
}


@pytest.mark.parametrize("lines, digest", GOLDEN_SWEEP_DIGESTS.values(), ids=GOLDEN_SWEEP_DIGESTS)
def test_sweep_bytes_are_pinned(tmp_path, lines, digest):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration = 2e-3\n" + lines)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("lines", [
    "bench.phi4 = 0\n",
    "bench.phi3 = 0.3\nbench.phi4 = 0.3\nbench.balance = 0.5\nbench.phi_d = 30 deg\n",
], ids=["aligned", "unbalanced"])
def test_sweep_point_0_writes_the_cells_of_analyze(tmp_path, lines, workers):
    # At bench.phi4 = bench.phi3 the sweep's point 0 (phi34 = 0) runs the
    # config's own bench on the record that simulate writes, so its g2 cells
    # (columns tau_s to i4_mean) are the bytes that analyze writes.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration = 2e-3\n" + lines)
    sweep, traces, g2 = tmp_path / "sweep.csv", tmp_path / "traces.csv", tmp_path / "g2.csv"
    assert main(["sweep", "--config", str(cfg), "--seed", "7", "--workers", str(workers), "--out", str(sweep)]) == 0
    assert main(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(traces)]) == 0
    assert main(["analyze", str(traces), "--tau-max", "5e-5", "--out", str(g2)]) == 0
    rows = sweep.read_text().splitlines()[1:12]
    assert len(rows) == 11 and all(row.startswith("0.0,") for row in rows)
    assert [",".join(row.split(",")[1:10]) for row in rows] == g2.read_text().splitlines()[1:]


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


@pytest.mark.parametrize("scale", [(1e200, 1e200), (1e-200, 1e-200), (1.0, 1e300)],
                         ids=["bright", "dim", "one_bright"])
def test_analyze_takes_a_record_in_any_intensity_unit(tmp_path, scale):
    # The sums of products of these intensities leave the float range, but
    # g2 does not depend on the unit: the cells are those of the record in
    # units near 1, to the rounding of multiplying it by ``scale``.
    cfg = default_run_config()
    traces = simulate_detectors(cfg.source, cfg.bench, 2e-3, 1e-7, seed=7)
    scaled = DetectorTraces(traces.dt, traces.n, traces.starts, traces.values * scale)
    cells = []
    for record, path, out in ((traces, tmp_path / "unit.csv", tmp_path / "unit_g2.csv"),
                              (scaled, tmp_path / "scaled.csv", tmp_path / "scaled_g2.csv")):
        save_detector_traces(record, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", str(path), "--tau-max", "5e-5", "--out", str(out)]) == 0
        cells.append(np.array(read_rows(out)[1], dtype=float))
    want, got = cells
    assert np.isfinite(got).all()
    assert np.allclose(got[:, :7], want[:, :7], rtol=1e-12, atol=0.0)
    assert np.allclose(got[:, 7:], want[:, 7:] * scale, rtol=1e-12, atol=0.0)


def test_analyze_delay_of_minus_zero_is_written_as_zero(tmp_path):
    path = tmp_path / "const.csv"
    save_detector_traces(DetectorTraces(1e-7, 500, [0, 100], [[0.2, 0.4], [0.3, 0.1]]), path)
    outs = {taus: tmp_path / f"{i}.csv" for i, taus in enumerate(["-0", "0", "-0.0,1e-7", "0,1e-7"])}
    for taus, out in outs.items():
        assert main(["analyze", str(path), f"--taus={taus}", "--out", str(out)]) == 0
    assert outs["-0"].read_text().splitlines()[1].startswith("0.0,")
    assert outs["-0"].read_bytes() == outs["0"].read_bytes()
    assert outs["-0.0,1e-7"].read_bytes() == outs["0,1e-7"].read_bytes()


@pytest.mark.parametrize("flag, value", [("--taus", "-0,1e-7"), ("--tau-max", "-1e-7")])
def test_a_flag_value_that_starts_with_a_dash_is_hinted_to_its_equals_form(tmp_path, capsys, flag, value):
    # argparse reads such a value as a flag unless it looks like a negative number.
    path = tmp_path / "const.csv"
    save_detector_traces(DetectorTraces(1e-7, 500, [0], [[0.2, 0.4]]), path)
    out = tmp_path / "o.csv"
    assert main(["analyze", str(path), flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(
        f"hbt analyze: error: argument {flag}: expected one argument; pass a value that starts with '-' as {flag}=VALUE\n"
    )
    assert not out.exists()


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


def test_analyze_taus_and_tau_max_are_exclusive(tmp_path, capsys):
    path = tmp_path / "const.csv"
    save_detector_traces(DetectorTraces(1e-7, 200, [0], [[1.0, 1.0]]), path)
    out = tmp_path / "o.csv"
    assert main(["analyze", str(path), "--taus", "0", "--tau-max", "5e-6", "--out", str(out)]) == 2
    assert "argument --tau-max: not allowed with argument --taus" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_tau_steps_only_with_tau_max(tmp_path, capsys):
    path = tmp_path / "const.csv"
    save_detector_traces(DetectorTraces(1e-7, 400, [0], [[1.0, 1.0]]), path)
    out = tmp_path / "o.csv"
    # Refused before the trace file is read: a missing file is not an i/o error here.
    for where, delays in ((path, []), (path, ["--taus", "0"]), (tmp_path / "missing.csv", [])):
        assert main(["analyze", str(where), *delays, "--tau-steps", "-3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "hbt: error: --tau-steps: only with --tau-max\n"
        assert not out.exists()
    # Without --tau-steps, --tau-max makes the sweep's default grid of 11 delays.
    assert main(["analyze", str(path), "--tau-max", "1e-6", "--out", str(out)]) == 0
    _, taus = sweep_grids(build_run_config({"sweep.tau_max": 1e-6}))
    assert [float(r[0]) for r in read_rows(out)[1]] == list(taus) and len(taus) == 11


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


def test_trace_dwells_cost_at_least_their_bound():
    # 6.9e5 dwells over 2000 samples: the trace's peak is its dwells'.
    cfg = build_run_config({"source.t_c": 2e-10, "source.t_min": 1e-10, "source.t_max": 1e-9, "sim.duration": 2e-4})
    dwells = cfg.sim.duration / truncated_dwell_mean(cfg.source)
    peak = traced_peak(lambda: simulate_detectors(cfg.source, cfg.bench, cfg.sim.duration, cfg.sim.dt, seed=0))
    assert peak >= BYTES_PER_DWELL * dwells


# --- predict / usage ---------------------------------------------------------------


def predict_lines(capsys) -> dict[str, str]:
    """The ``name = value`` lines that ``hbt predict`` printed."""
    return dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines() if " = " in line)


def test_predict_report(tmp_path, capsys):
    assert main(["predict"]) == 0
    out = capsys.readouterr().out
    assert "omega   = 6.28318531 sr" in out
    assert "phi_g   = 3.14159265 rad" in out
    assert "g2_cross(tau=0) = 1.5" in out
    assert "g2_self(tau=0)  = 1.5" in out
    assert "10 of 16 terms vanish" in out
    assert out.count(" geometric ") == 2
    # at a dynamical phase only the cross line moves, and the audit follows it
    path = tmp_path / "phase.cfg"
    path.write_text("bench.phi4 = 30 deg\nbench.phi_d = 90 deg\n")
    assert main(["predict", "--config", str(path)]) == 0
    lines = predict_lines(capsys)
    assert lines["g2_self(tau=0) "] == "1.5"
    cross = predict_g2_cross(math.pi / 2, solid_angle_of_setup(0.0, math.radians(30)))
    assert lines["g2_cross(tau=0)"] == f"{cross:.9g}"
    assert f"{float(lines['survivor sum']):.9g}" == lines["g2_cross(tau=0)"]


def test_predict_degenerate_lune(tmp_path, capsys):
    path = tmp_path / "lune.cfg"
    path.write_text("bench.phi3 = 0.4\nbench.phi4 = 0.4\n")
    assert main(["predict", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "g2_cross(tau=0) = 0.5" in out
    # balance 4: visibility 0.64, so the fringe there is 1 -+ 0.32
    path.write_text("bench.balance = 4\nbench.phi4 = 0\n")
    assert main(["predict", "--config", str(path)]) == 0
    lines = predict_lines(capsys)
    assert (lines["g2_cross(tau=0)"], lines["g2_self(tau=0) "], lines["survivor sum"]) == ("0.68", "1.32", "0.68")


def test_predict_and_sweep_agree_on_one_config(tmp_path, capsys):
    # The sweep's first point, phi4 = bench.phi3 + sweep.phi34_start, is the
    # bench that predict reads.
    path = tmp_path / "one.cfg"
    path.write_text(
        "sim.duration = 2e-3\nbench.balance = 4\nbench.phi_d = 90 deg\nbench.phi4 = 30 deg\n"
        "sweep.phi34_start = 30 deg\nsweep.phi34_steps = 2\nsweep.tau_max = 0\nsweep.tau_steps = 1\n"
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    columns, rows = read_rows(out)
    first = {name: float(cell) for name, cell in zip(columns, rows[0])}
    assert (first["phi34_rad"], first["tau_s"]) == (math.radians(30), 0.0)
    assert main(["predict", "--config", str(path)]) == 0
    lines = predict_lines(capsys)
    assert lines["g2_cross(tau=0)"] == f"{first['oracle_g2_cross']:.9g}"
    assert lines["g2_self(tau=0) "] == f"{first['oracle_g2_self']:.9g}"
    assert f"{float(lines['survivor sum']):.9g}" == lines["g2_cross(tau=0)"]


def test_predict_angles_that_overflow_are_exit_2(tmp_path, capsys):
    path = tmp_path / "angles.cfg"
    path.write_text("bench.phi3 = 1e308\nbench.phi4 = -1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["predict", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("hbt: error: bench.phi3, bench.phi4: ")


@pytest.mark.parametrize("balance", ["1e300", "1.7e308"])
def test_predict_at_a_huge_balance_prints_no_nan(tmp_path, capsys, balance):
    # Each detector's terms are normalised by its own mean intensity, whose
    # product with the other's would overflow from about 1.35e154.
    path = tmp_path / "balance.cfg"
    path.write_text(f"bench.balance = {balance}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["predict", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    assert out.endswith("survivor sum = 1\n")
    # The direct term of E1 at both detectors underflows to a magnitude of
    # 0, but time averaging keeps it: a term is starred by its kind.
    assert "  * D3:E1*E1 D4:E1*E1  direct     sign=+1  magnitude=0  phase=+0\n" in out
    assert sum(1 for line in out.splitlines() if line.startswith("  * ")) == 6
    assert "10 of 16 terms vanish" in out


def test_usage_errors_are_exit_2(tmp_path, capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    path = tmp_path / "angle.cfg"
    path.write_text("bench.phi3 = nonsense\n")
    assert main(["predict", "--config", str(path)]) == 2
    assert "bench.phi3: unparseable value 'nonsense'" in capsys.readouterr().err


def test_module_entry_point_exit_codes(tmp_path):
    src = Path(hbtsim.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    bad = tmp_path / "bad.cfg"
    bad.write_text("source.amplitude = 1\n")
    run = lambda *argv: subprocess.run(
        [sys.executable, "-W", "error", "-m", "hbtsim", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    done = run("predict")
    assert done.returncode == 0
    assert "g2_cross(tau=0) = 1.5" in done.stdout
    done = run("predict", "--config", str(bad))
    assert done.returncode == 2
    assert "source.amplitude: unknown configuration key" in done.stderr
    assert "Traceback" not in done.stdout + done.stderr


def test_diagnostics_end_no_command_under_warnings_as_errors(tmp_path):
    src = Path(hbtsim.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(lines, *argv):
        (tmp_path / "run.cfg").write_text(lines)
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "hbtsim", *argv, "--config", "run.cfg"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )

    short = "sim.duration = 5e-4\nsweep.tau_max = 0\nsweep.tau_steps = 1\nsweep.phi34_steps = 3\n"
    for lines, argv in (
        ("sim.duration = 5e-5\n", ["simulate", "--out", "traces.csv"]),
        (short, ["sweep", "--workers", "1", "--out", "w1.csv"]),
        (short, ["sweep", "--workers", "2", "--out", "w2.csv"]),
    ):
        done = run(lines, *argv)
        assert (done.returncode, done.stderr) == (0, f"hbt: warning: {SHORT_RECORD}\n"), argv
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
    # dt = t_min, a record of 2000 t_c: no diagnostic; predict prints none
    done = run("source.t_c = 1e-6\nsource.t_min = 1e-7\nsource.t_max = 1e-3\nsim.duration = 2e-3\n",
               "simulate", "--out", "fine.csv")
    assert (done.returncode, done.stderr) == (0, "")
    done = run("sim.duration = 5e-5\n", "predict")
    assert (done.returncode, done.stderr) == (0, "")


def test_dt_above_t_min_is_accepted(tmp_path):
    # Sample-and-hold drops the levels that hold no sample, and sees the
    # process at the instants k dt: no rule ties sim.dt to source.t_min.
    # Here sim.dt = t_c = 10 t_min, so 200 samples.
    (tmp_path / "run.cfg").write_text("sim.dt = 1e-5\nsim.duration = 2e-3\nsweep.tau_steps = 6\n")
    src = Path(hbtsim.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv in (
        ["simulate", "--config", "run.cfg", "--out", "traces.csv"],
        ["analyze", "traces.csv", "--tau-max", "5e-5", "--tau-steps", "6", "--out", "g2.csv"],
        ["sweep", "--config", "run.cfg", "--workers", "1", "--out", "w1.csv"],
        ["sweep", "--config", "run.cfg", "--workers", "2", "--out", "w2.csv"],
    ):
        done = subprocess.run([sys.executable, "-W", "error", "-m", "hbtsim", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, ""), argv
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


def test_console_main_exits_with_the_code_of_main(tmp_path, monkeypatch):
    bad = tmp_path / "bad.cfg"
    bad.write_text("source.amplitude = 1\n")
    for argv, code in ((["predict"], 0), (["predict", "--config", str(bad)], 2), (["frobnicate"], 2)):
        monkeypatch.setattr(sys, "argv", ["hbt", *argv])
        assert main(argv) == code
        with pytest.raises(SystemExit) as info:
            cli.console_main()
        assert info.value.code == code


def test_default_config_is_valid():
    cfg = default_run_config()
    cfg.validate()
    sweep_grids(cfg)
    assert cfg.sweep.phi34_steps == 13
    assert cfg.sim.duration == pytest.approx(2000 * cfg.source.t_c)
