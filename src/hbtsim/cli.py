"""Command-line driver: ``hbt simulate|sweep|analyze|predict``.

Configuration is a flat key-value text file (``section.key = value``) in SI
units; angle values accept a ``deg`` suffix.  All randomness flows from the
single ``sim.seed`` (``--seed`` overrides it): identical configs give
byte-identical output files, regardless of the worker count.  Exit codes:
0 success, 2 usage/config/data error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import re
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, replace

import numpy as np

from .bench import BenchConfig, DetectorTraces, mean_intensity
from .bench import load_detector_traces, save_detector_traces
from .correlate import SCAN_KINDS, delay_lag, scan
# Patched by the benchmark's tracer (ROADMAP item 4); nothing here calls them.
from .correlate import g2_delay_scan  # noqa: F401
from .oracle import predict_g2_cross, predict_g2_self  # noqa: F401
from .csvutil import fmt_float as _fmt
from .csvutil import write_csv
from .errors import ConfigError, OffGridDelayError
from .oracle import audit_survivor_sum, no_jump_probability, predict_g2, solid_angle_of_setup, term_audit
from .pipeline import PointEstimates, estimate_point, simulate_detectors
from .source import PhaseNoiseConfig, default_source_config, truncated_dwell_mean


@dataclass(frozen=True)
class SimConfig:
    """Sample period, record length, master seed and repeats per setting."""

    dt: float = 1e-7
    duration: float = 2e-2
    seed: int = 12345
    repeats: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError("duration must be positive and finite")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2 ** 63):
            raise ValueError("seed must be a non-negative 63-bit integer")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


@dataclass(frozen=True)
class SweepConfig:
    """Polariser-angle sweep grid and delay grid."""

    phi34_start: float = 0.0
    phi34_end: float = 2.0 * math.pi
    phi34_steps: int = 13
    tau_max: float = 5e-5
    tau_steps: int = 11

    def __post_init__(self):
        for name in ("phi34_start", "phi34_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.phi34_steps < 2:
            raise ValueError("phi34_steps must be >= 2")
        if self.tau_steps < 1:
            raise ValueError("tau_steps must be >= 1")
        if not (math.isfinite(self.tau_max) and self.tau_max >= 0.0):
            raise ValueError("tau_max must be finite and >= 0")


@dataclass(frozen=True)
class RunConfig:
    source: PhaseNoiseConfig
    bench: BenchConfig
    sim: SimConfig
    sweep: SweepConfig

    def validate(self) -> None:
        """Refuse, naming the field, a config whose record ``hbt simulate``
        cannot hold (its samples or its phase dwells) or write.  Only
        ``hbt sweep`` checks ``sweep.*`` (``sweep_grids``)."""
        check_fits_in_memory("sim.duration", self.sim.duration / self.sim.dt, "samples per trace", BYTES_PER_SAMPLE)
        dwells = self.sim.duration / truncated_dwell_mean(self.source)
        check_fits_in_memory("sim.duration, source.t_c", dwells, "phase dwells per trace", BYTES_PER_DWELL)
        with naming("sim.duration"):
            delay_lag(0.0, self.sim.dt, self.n_samples)

    def diagnostics(self) -> list[str]:
        """Warnings, each naming its field, on a config whose error bars understate the noise."""
        if self.sim.duration < 100.0 * self.source.t_c:
            return [f"sim.duration: below 100 source.t_c = {100.0 * self.source.t_c:.6g} s;"
                    " the error bars will understate the noise"]
        return []

    @property
    def n_samples(self) -> int:
        """Samples per trace, as ``generate_trace`` rounds them."""
        return round(self.sim.duration / self.sim.dt)


# Lower bounds on the bytes per trace sample, phase dwell, sweep row,
# analyze delay and held result: tracemalloc at the default config measures
# 3.0-3.5 B per sample in every command (runs, streamed CSVs), plus about
# 0.15 MB of CSV write blocks in simulate, 0.9-2.0 kB per row, 1.1 kB per
# delay and 18-295 B per result (a value and an error) of a repeat's scan
# (101 to 1 or 2 delays); the peak of a trace (generate_trace,
# simulate_detectors) is 37-180 B per dwell where dwells outnumber samples.
BYTES_PER_SAMPLE = 2
BYTES_PER_DWELL = 32
BYTES_PER_ROW = 800
BYTES_PER_DELAY = 500
BYTES_PER_RESULT = 16


def check_fits_in_memory(field: str, count: float, what: str, item_bytes: int) -> None:
    """Refuse ``count`` items of at least ``item_bytes`` each that would not
    fit in physical memory, before any array exists.  Where the platform
    cannot tell its physical memory (no ``os.sysconf``, or an error from
    it), nothing is refused.

    int/float comparisons are exact, so nothing overflows.
    """
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if count * item_bytes > memory:
        raise ConfigError(
            field, f"{count:.3g} {what} need more than the {memory / 2 ** 30:.3g} GiB of physical memory"
        )


def default_run_config() -> RunConfig:
    return RunConfig(
        source=default_source_config(),
        bench=BenchConfig(phi3=0.0, phi4=0.5 * math.pi, phi_d=0.0, balance=1.0),
        sim=SimConfig(),
        sweep=SweepConfig(),
    )


# --- config file parsing ----------------------------------------------------

_ANGLE_KEYS = {
    "bench.phi3", "bench.phi4", "bench.phi_d",
    "sweep.phi34_start", "sweep.phi34_end",
}


def parse_angle(text: str) -> float:
    """Angle in radians; a trailing ``deg`` marks degrees."""
    text = text.strip()
    try:
        if text.endswith("deg"):
            return math.radians(float(text[:-3].strip()))
        return float(text)
    except ValueError:
        raise ConfigError("angle", f"unparseable angle {text!r}") from None


def _config_keys() -> dict[str, Callable[[str], object]]:
    """``section.key`` -> value parser for every field of the section
    dataclasses (postponed annotations make ``f.type`` a string)."""
    base = default_run_config()
    keys = {}
    for section in fields(base):
        for f in fields(getattr(base, section.name)):
            key = f"{section.name}.{f.name}"
            keys[key] = parse_angle if key in _ANGLE_KEYS else {"int": int, "float": float}[f.type]
    return keys


CONFIG_KEYS = _config_keys()


def parse_config_file(path, overrides: dict[str, object] | None = None) -> RunConfig:
    """The config of a file, with ``overrides`` (parsed, by key) winning; the
    record checks (``RunConfig.validate``) are the record commands' own."""
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ConfigError(f"{path}:{lineno}", "not UTF-8") from None
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}", f"expected 'key = value', got {line!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(key, "unknown configuration key")
            if set_on.setdefault(key, lineno) != lineno:
                raise ConfigError(f"{path}:{lineno}", f"{key} already set on line {set_on[key]}")
            try:
                values[key] = CONFIG_KEYS[key](text)
            except ValueError:
                raise ConfigError(key, f"unparseable value {text!r}") from None
    return build_run_config({**values, **(overrides or {})})


def build_run_config(values: dict[str, object]) -> RunConfig:
    """The default config with ``values`` (parsed, by ``section.key``) set;
    ``RunConfig.validate`` is not run."""
    base = default_run_config()
    sections = {}
    for section in fields(base):
        prefix = section.name + "."
        try:
            sections[section.name] = replace(getattr(base, section.name), **{
                key[len(prefix):]: val for key, val in values.items() if key.startswith(prefix)
            })
        except ValueError as exc:
            raise ConfigError(section.name, str(exc)) from None
    return RunConfig(**sections)


def _load_config(args) -> RunConfig:
    seed = getattr(args, "seed", None)  # predict has no --seed
    overrides = {} if seed is None else {"sim.seed": seed}
    cfg = parse_config_file(args.config, overrides) if args.config else build_run_config(overrides)
    if args.command != "predict":  # the commands that run the sources, before they do
        cfg.validate()
        sys.stderr.writelines(f"hbt: warning: {line}\n" for line in cfg.diagnostics())
    return cfg


# --- sweep --------------------------------------------------------------------

def _g2_columns(kinds) -> list[str]:
    """Results-table columns: delay, value and error per kind, mean intensities."""
    return ["tau_s", *(f"g2_{k}{s}" for k in kinds for s in ("", "_err")), "i3_mean", "i4_mean"]


def _g2_cells(taus, values, errors, i3_mean: float, i4_mean: float) -> Iterator[list[str]]:
    """The ``_g2_columns`` rows of ``scan``'s ``values`` and ``errors``, one per delay of ``taus``."""
    means = [_fmt(i3_mean), _fmt(i4_mean)]
    columns = [column for pair in zip(values.tolist(), errors.tolist()) for column in pair]  # value, error per kind
    for tau, *cells in zip(taus, *columns):
        yield [_fmt(tau), *map(_fmt, cells), *means]


SWEEP_COLUMNS = ["phi34_rad", *_g2_columns(SCAN_KINDS), "oracle_g2_cross", "oracle_g2_self"]


ONE_DELAY_STEP = "a grid of 1 step holds only the delay 0; use >= 2 steps or a tau_max of 0"


@contextmanager
def naming(field: str):
    """Re-raise a ``ValueError`` of the block, a delay that the estimators'
    rule ``delay_lag`` refuses, as ``ConfigError(field)``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None


def delay_grid(fields: tuple[str, str], tau_max: float, steps: int, dt: float, n: int) -> np.ndarray:
    """``steps`` delays from 0 to ``tau_max``, snapped onto the sample grid
    of period ``dt``.  ``fields`` are the tau_max and steps keys or flags:
    the first is named if a record of ``n`` samples cannot take the grid's
    end, the second unless the grid holds ``steps`` distinct delays or is
    the one delay 0."""
    tau_field, steps_field = fields
    if steps == 1 and tau_max > 0.0:
        raise ConfigError(steps_field, ONE_DELAY_STEP)
    # The end's lag round(tau_max / dt) against the record before any array
    # exists.  The grid snaps tau_max onto the sample grid, so the rule's
    # last check, that tau_max sits on it, does not apply.
    with naming(tau_field), suppress(OffGridDelayError):
        delay_lag(tau_max, dt, n)
    taus = np.round(np.linspace(0.0, tau_max, steps) / dt) * dt
    if np.any(taus[1:] == taus[:-1]):
        raise ConfigError(
            steps_field,
            f"{steps} steps from 0 to {tau_max!r} s repeat delays on the dt={dt!r} s grid"
            f" ({len(np.unique(taus))} distinct); use fewer steps or a larger tau_max",
        )
    return taus


def sweep_grids(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """The phi34 and delay grids of the sweep.  This is where the
    ``sweep.*`` keys are checked: a grid whose angles overflow, whose rows
    would not fit in memory or whose delays its records cannot take is
    refused, naming the keys, before any array exists."""
    sweep, phi3 = cfg.sweep, cfg.bench.phi3
    if not math.isfinite(sweep.phi34_end - sweep.phi34_start):
        raise ConfigError("sweep.phi34_start, sweep.phi34_end", "phi34_end - phi34_start must be finite")
    for key, phi34 in (("sweep.phi34_start", sweep.phi34_start), ("sweep.phi34_end", sweep.phi34_end)):
        # phi4, and the phi34_rad of its rows, at either end of the grid
        if not math.isfinite((phi3 + phi34) - phi3):
            raise ConfigError(f"bench.phi3, {key}", "bench.phi3 + phi34 must be finite")
    rows = sweep.phi34_steps * sweep.tau_steps
    check_fits_in_memory("sweep.phi34_steps x sweep.tau_steps", rows, "rows", BYTES_PER_ROW)
    # estimate_point holds every repeat's scan until it combines them.
    results = cfg.sim.repeats * sweep.tau_steps * len(SCAN_KINDS)
    check_fits_in_memory("sim.repeats x sweep.tau_steps", results, "results held per point", BYTES_PER_RESULT)
    fields = ("sweep.tau_max", "sweep.tau_steps")
    taus = delay_grid(fields, sweep.tau_max, sweep.tau_steps, cfg.sim.dt, cfg.n_samples)
    return np.linspace(sweep.phi34_start, sweep.phi34_end, sweep.phi34_steps), taus


Job = tuple[RunConfig, int, float, tuple[float, ...]]


def _sweep_point_job(job: Job) -> PointEstimates:
    cfg, point, phi34, taus = job
    bench_cfg = replace(cfg.bench, phi4=cfg.bench.phi3 + phi34)
    return estimate_point(
        cfg.source, bench_cfg, cfg.sim.duration, cfg.sim.dt, cfg.sim.seed,
        taus, repeats=cfg.sim.repeats, point=point,
    )


def pool_workers(requested: int, n_jobs: int, n_cpus: int | None) -> int:
    """Processes to run the sweep's shares in: never more than there are
    jobs or CPUs, and one where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return min(requested, n_jobs, n_cpus or 1)


def usable_cpus() -> int | None:
    """The CPUs this process may run on (all of the host's where the
    platform cannot tell)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _run_share(jobs: list[Job]) -> list[PointEstimates]:
    return [_sweep_point_job(job) for job in jobs]


def _fork_share(jobs: list[Job], children: dict[int, int]) -> int:
    """Fork a child that runs ``jobs`` and pickles ``(ok, points or
    exception)`` into a pipe; ``children`` maps its pid to the pipe's read
    end until it is reaped.  The child never returns into the caller's
    stack: it leaves through ``os._exit`` whatever happens."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, _run_share(jobs))
            except BaseException as exc:
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    children[pid] = read_fd
    os.close(write_fd)
    return pid


def _join_share(pid: int, children: dict[int, int], jobs: list[Job]) -> list[PointEstimates]:
    """The points of the child ``pid``, read to the end of its pipe once it
    is reaped; its exception re-raised."""
    with open(children[pid], "rb", closefd=False) as pipe:
        data = pipe.read()
    status = os.waitpid(pid, 0)[1]
    os.close(children.pop(pid))
    try:
        ok, value = pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        raise ChildProcessError(
            f"the sweep worker for points {jobs[0][1]}-{jobs[-1][1]} left no readable result ({how})"
        ) from None
    if not ok:
        raise value
    return value


def run_sweep(cfg: RunConfig, workers: int = 1) -> list[PointEstimates]:
    """All sweep points, in grid order.  The jobs are cut into at most
    ``workers`` contiguous shares (``pool_workers``): the caller runs the
    first, and one forked child runs each other.  No child outlives the call: if anything raises, every child
    not yet reaped is killed and reaped."""
    phi34s, taus = sweep_grids(cfg)
    jobs = [
        (cfg, i, float(phi34), tuple(float(t) for t in taus))
        for i, phi34 in enumerate(phi34s)
    ]
    n = pool_workers(workers, len(jobs), usable_cpus())
    shares = [jobs[w * len(jobs) // n:(w + 1) * len(jobs) // n] for w in range(n)]
    children: dict[int, int] = {}
    try:
        pids = [_fork_share(share, children) for share in shares[1:]]
        points = _run_share(shares[0])
        for pid, share in zip(pids, shares[1:]):
            points += _join_share(pid, children, share)
    finally:
        for pid, read_fd in children.items():
            import signal  # only a failed sweep leaves a child to kill
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
            os.close(read_fd)
    return points


def sweep_rows(cfg: RunConfig, points: list[PointEstimates]) -> list[list[str]]:
    """The sweep's rows, each with the oracle (``predict_g2``) of the bench
    its point ran, at its delay: one oracle call per point, over the whole
    delay grid."""
    rows = []
    p2s = np.array([no_jump_probability(cfg.source, tau) ** 2 for tau in points[0].taus]) if points else []
    for pt in points:
        oracle = predict_g2(pt.bench, p2s)
        phi34 = _fmt(pt.bench.phi4 - pt.bench.phi3)
        cells = _g2_cells(pt.taus, pt.g2, pt.g2_err, pt.i3_mean, pt.i4_mean)
        for row, cross, self_ in zip(cells, oracle["cross"].tolist(), oracle["self3"].tolist()):
            rows.append([phi34, *row, _fmt(cross), _fmt(self_)])
    return rows


# --- subcommands --------------------------------------------------------------


def cmd_simulate(cfg: RunConfig, out_path) -> None:
    """Write the detector traces of a single (phi34, phi_d) point."""
    traces = simulate_detectors(
        cfg.source, cfg.bench, cfg.sim.duration, cfg.sim.dt, cfg.sim.seed
    )
    save_detector_traces(traces, out_path)


def cmd_sweep(cfg: RunConfig, out_path, workers: int = 1) -> None:
    points = run_sweep(cfg, workers)
    rows = sweep_rows(cfg, points)
    write_csv(out_path, "# columns: " + ",".join(SWEEP_COLUMNS), map(",".join, rows))


def cmd_analyze(traces: DetectorTraces, taus, kinds: list[str], out_path) -> None:
    """Run the correlation estimators offline on recorded traces."""
    cells = _g2_cells(taus, *scan(traces, taus, kinds), *mean_intensity(traces))
    write_csv(out_path, "# columns: " + ",".join(_g2_columns(kinds)), map(",".join, cells))


def predict_report(bench: BenchConfig) -> str:
    """The closed forms and the term audit of one bench setting."""
    with naming("bench.phi3, bench.phi4"):
        omega = solid_angle_of_setup(bench.phi3, bench.phi4)
    oracle = predict_g2(bench)
    terms = term_audit(bench)
    n_zero = sum(1 for t in terms if t.kind == "vanishing")
    lines = [
        f"phi3    = {bench.phi3:.9g} rad",
        f"phi4    = {bench.phi4:.9g} rad",
        f"phi_d   = {bench.phi_d:.9g} rad",
        f"omega   = {omega:.9g} sr   (solid angle of the R-4-L-3 polariser loop)",
        f"phi_g   = {omega / 2.0:.9g} rad  (geometric phase, omega/2)",
        f"g2_cross(tau=0) = {oracle['cross']:.9g}",
        f"g2_self(tau=0)  = {oracle['self3']:.9g}",
        "mean intensity  = 0.25 * (<I1> + <I2>) at each detector",
        "",
        "term audit (16 terms; * marks survivors):",
    ]
    for t in terms:
        star = " " if t.kind == "vanishing" else "*"
        lines.append(
            f"  {star} {t.label}  {t.kind:<9}  sign={t.sign:+d}"
            f"  magnitude={t.magnitude:.9g}  phase={t.phase:+.9g}"
        )
    lines.append(f"{n_zero} of 16 terms vanish on time averaging")
    lines.append(f"survivor sum = {audit_survivor_sum(terms):.12g}")
    return "\n".join(lines)


# --- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse reads a value that starts with '-' as a flag: hint the '=' form
        flag = re.fullmatch(r"argument (--[\w-]+): expected one argument", message)
        super().error(message + (f"; pass a value that starts with '-' as {flag[1]}=VALUE" if flag else ""))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hbt",
        description="Phase-noise intensity-interferometry bench simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write detector traces for one setting")
    p_sweep = sub.add_parser("sweep", help="scan phi34 x tau and write estimates")
    p_an = sub.add_parser("analyze", help="correlate a recorded trace file")
    p_pre = sub.add_parser("predict", help="closed-form predictions and term audit")

    for p in (p_sim, p_sweep, p_pre):
        p.add_argument("--config", help="flat key-value config file")
    for p in (p_sim, p_sweep):
        p.add_argument("--seed", type=int, help="override sim.seed")
        p.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel sweep points")

    p_an.add_argument("trace", help="detector-trace CSV (as written by simulate)")
    p_an.add_argument("--out", required=True, help="output CSV path")
    delays = p_an.add_mutually_exclusive_group()
    delays.add_argument("--taus", help="comma-separated delays in seconds")
    delays.add_argument("--tau-max", type=float, help="delay grid end (seconds), snapped to the file's dt")
    p_an.add_argument("--tau-steps", type=int, help=f"size of the --tau-max grid (default {SweepConfig.tau_steps})")
    for kind in SCAN_KINDS:
        p_an.add_argument(f"--{kind}", action="store_true", help=f"estimate g2_{kind} (default: every kind)")

    return parser


def _analyze_taus(args, traces: DetectorTraces) -> list[float]:
    if args.taus is not None:
        field = "--taus"
        try:
            taus = [float(x) + 0.0 for x in args.taus.split(",") if x.strip()]  # -0 is 0
        except ValueError:
            raise ConfigError(field, f"unparseable delay list {args.taus!r}") from None
        if not taus:
            raise ConfigError(field, "no delays given")
    elif args.tau_max is not None:
        steps = SweepConfig.tau_steps if args.tau_steps is None else args.tau_steps
        if steps < 1:
            raise ConfigError("--tau-steps", "must be >= 1")
        check_fits_in_memory("--tau-steps", steps, "delays", BYTES_PER_DELAY)
        field = "--tau-max"
        grid = delay_grid((field, "--tau-steps"), args.tau_max, steps, traces.dt, traces.n)
        taus = [float(t) for t in grid]
    else:
        field, taus = args.trace, [0.0]
    # Refuse, naming the flag (or the file), any delay that scan would
    # refuse on this record.
    with naming(field):
        for tau in taus:
            delay_lag(tau, traces.dt, traces.n)
    return taus


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "simulate":
            cmd_simulate(_load_config(args), args.out)
        elif args.command == "sweep":
            if args.workers < 1:
                raise ConfigError("--workers", "must be >= 1")
            cmd_sweep(_load_config(args), args.out, workers=args.workers)
        elif args.command == "analyze":
            if args.tau_steps is not None and args.tau_max is None:
                raise ConfigError("--tau-steps", "only with --tau-max")
            kinds = [kind for kind in SCAN_KINDS if getattr(args, kind)] or list(SCAN_KINDS)
            traces = load_detector_traces(args.trace)
            cmd_analyze(traces, _analyze_taus(args, traces), kinds, args.out)
        elif args.command == "predict":
            print(predict_report(_load_config(args).bench))
    except ValueError as exc:
        print(f"hbt: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"hbt: i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
