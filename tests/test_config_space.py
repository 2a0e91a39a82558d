"""Aim 3 over the config space: the sweep agrees with its own oracle columns
at random accepted configs, and every extreme value of every key ends in a
clean exit."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from hbtsim import cli, pipeline
from hbtsim.cli import CONFIG_KEYS, SWEEP_COLUMNS, build_run_config, main, run_sweep, sweep_rows
from hbtsim.oracle import no_jump_probability
from hbtsim.source import PhaseNoiseConfig

# Each bound below fails a correct program with probability 1e-3 if every z
# follows Student's t with 19 dof (batch means over 20 batches), so a run
# fails falsely with probability at most about 2e-3.  400 such configs gave
# 42 000 z-values with a std of 1.033 (t's is 1.057) and a max |z| of 5.33.
FAMILY_RATE = 1e-3
T_C = 1e-5


def random_configs(count: int, seed: int):
    """Sources with t_min/t_c in [0.01, 0.9], t_max/t_c in [1.1, 100] and
    dt/t_c in [0.01, 1], all log-uniform; balance e^{+-3}, phi3 and phi_d
    uniform; 7 phi34 x 5 delays up to 2 t_c (4 dt where the grid is coarser).
    Each record is sized so that a batch spans 400 int P^2, or 3e5 samples
    where that is less."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        t_min, t_max, dt = T_C * 10 ** rng.uniform([-2.0, math.log10(1.1), -2.0], [math.log10(0.9), 2.0, 0.0])
        source = PhaseNoiseConfig(T_C, t_min, t_max)
        taus = np.linspace(0.0, t_max, 2001)  # P = 0 from t_max
        area = np.trapezoid([no_jump_probability(source, tau) ** 2 for tau in taus], taus)
        yield build_run_config({
            "source.t_c": T_C, "source.t_min": t_min, "source.t_max": t_max,
            "bench.phi3": rng.uniform(-math.pi, math.pi), "bench.phi_d": rng.uniform(-math.pi, math.pi),
            "bench.balance": math.exp(rng.uniform(-3.0, 3.0)),
            "sim.dt": dt, "sim.duration": min(20 * 400 * area, 3e5 * dt), "sim.seed": i,
            "sweep.phi34_steps": 7, "sweep.tau_max": max(2 * T_C, 4 * dt), "sweep.tau_steps": 5,
        })


def test_every_sweep_row_agrees_with_its_oracle_columns():
    column = {name: i for i, name in enumerate(SWEEP_COLUMNS)}
    pairs = (("cross", "oracle_g2_cross"), ("self3", "oracle_g2_self"), ("self4", "oracle_g2_self"))
    z_values = []
    for cfg in random_configs(30, 0):
        cfg.validate()
        rows = np.array(sweep_rows(cfg, run_sweep(cfg)), dtype=float)
        z_values.append(np.concatenate([
            (rows[:, column[f"g2_{kind}"]] - rows[:, column[oracle]]) / rows[:, column[f"g2_{kind}_err"]]
            for kind, oracle in pairs
        ]))
    z = np.concatenate(z_values)
    assert z.size == 30 * 7 * 5 * 3
    # Every |z| within the Bonferroni quantile over the count (7.66 for 3150).
    assert np.abs(z).max() < stats.t.isf(FAMILY_RATE / (2 * z.size), 19)
    # The configs are independent, so the mean of their mean z is a t
    # statistic with 29 dof under its standard error.
    means = np.array([zs.mean() for zs in z_values])
    t = means.mean() / (means.std(ddof=1) / math.sqrt(len(means)))
    assert abs(t) < stats.t.isf(FAMILY_RATE / 2, len(means) - 1)


EXTREMES = ["0", "-1", "5e-324", "1e154", "1e308", "nan", "inf", str(2 ** 63 - 1), "1e5deg"]


class RecordSentinel(Exception):
    """Raised where an accepted config would make its first record."""


def stop_at_the_record(*args, **kwargs):
    raise RecordSentinel


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_every_extreme_value_ends_cleanly(tmp_path, capsys, monkeypatch, key):
    # An accepted config of simulate or sweep ends in the sentinel before
    # it makes a record, so no value here makes a long run.  The sweep
    # refuses sim.repeats = 2**63 - 1 for the results it would hold
    # (sim.repeats x sweep.tau_steps), but a count that fits in memory can
    # still take days.
    monkeypatch.setattr(cli, "simulate_detectors", stop_at_the_record)
    monkeypatch.setattr(pipeline, "simulate_detectors", stop_at_the_record)
    path = tmp_path / "run.cfg"
    for value in EXTREMES:
        path.write_text(f"{key} = {value}\n")
        for argv in (["predict"], ["simulate", "--out", str(tmp_path / "traces.csv")],
                     ["sweep", "--out", str(tmp_path / "sweep.csv")]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code = main([*argv, "--config", str(path)])
                except RecordSentinel:
                    code = "sentinel"
            out, err = capsys.readouterr()
            where = f"{key} = {value}: hbt {argv[0]}"
            assert code in (0, 2, 3, "sentinel"), where
            assert "nan" not in out and "Traceback" not in out + err, where
