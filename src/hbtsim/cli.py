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
import signal
import sys
from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, replace

import numpy as np

from .bench import BenchConfig, DetectorTraces, mean_intensity
from .bench import load_detector_traces, save_detector_traces
from .correlate import SCAN_KINDS, CorrelationResult, delay_lag, scan
# The benchmark's tracer patches this name (ROADMAP item 4); nothing here
# calls it.
from .correlate import g2_delay_scan  # noqa: F401
from .csvutil import fmt_float as _fmt
from .csvutil import write_csv
from .errors import ConfigError, OffGridDelayError
from .oracle import (
    audit_survivor_sum,
    predict_g2_cross,
    predict_g2_self,
    solid_angle_of_setup,
    term_audit,
)
from .pipeline import PointEstimates, estimate_point, simulate_detectors
from .source import PhaseNoiseConfig, default_source_config


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

    def validate(self, sweep: bool = True) -> None:
        """Refuse a config whose record ``hbt simulate`` cannot write or,
        with ``sweep``, whose grid ``hbt sweep`` cannot run, naming the
        field."""
        if self.sim.dt > self.source.t_min:
            raise ConfigError("sim.dt", "must not exceed source.t_min")
        samples = self.sim.duration / self.sim.dt
        check_fits_in_memory("sim.duration", samples, "samples per trace", BYTES_PER_SAMPLE)
        with naming("sim.duration"):
            delay_lag(0.0, self.sim.dt, self.n_samples)
        # A detector sample is at most s/2 and a mean intensity is s/4, with
        # s = a^2 (1 + b) (bench.propagate).  The estimators sum n products
        # of samples and divide by products of means; both must stay normal
        # floats.  In logs, because a ** 2 itself may overflow.
        log_s = 2.0 * math.log(self.source.amplitude) + math.log1p(self.bench.balance)
        if not (math.log(sys.float_info.min) <= 2.0 * log_s - math.log(16.0)
                and 2.0 * log_s + math.log(samples / 4.0) <= math.log(sys.float_info.max)):
            raise ConfigError(
                "source.amplitude, bench.balance",
                f"intensity scale a^2 (1 + b) = 1e{log_s / math.log(10.0):+.0f} puts the"
                " estimator products outside the normal float range",
            )
        if not sweep:
            return
        start, end = self.sweep.phi34_start, self.sweep.phi34_end
        if not math.isfinite(end - start):
            raise ConfigError("sweep.phi34_start, sweep.phi34_end", "phi34_end - phi34_start must be finite")
        for key, phi34 in (("sweep.phi34_start", start), ("sweep.phi34_end", end)):
            # phi4 and the oracle's 4*(phi4 - phi3) at either end of the grid
            if not math.isfinite(4.0 * ((self.bench.phi3 + phi34) - self.bench.phi3)):
                raise ConfigError(f"bench.phi3, {key}", "bench.phi3 + phi34 and 4*phi34 must be finite")
        rows = self.sweep.phi34_steps * self.sweep.tau_steps
        check_fits_in_memory("sweep.phi34_steps x sweep.tau_steps", rows, "rows", BYTES_PER_ROW)
        sweep_grids(self)

    @property
    def n_samples(self) -> int:
        """Samples per trace, as ``generate_trace`` rounds them."""
        return round(self.sim.duration / self.sim.dt)


# Lower bounds on the bytes per trace sample, sweep row and analyze delay:
# tracemalloc at the default config measures 3.0-3.3 B per sample in every
# command (runs, streamed CSVs), plus about 0.15 MB of CSV write blocks in
# simulate, 1.6 kB per row and 0.69 kB per delay.
BYTES_PER_SAMPLE = 2
BYTES_PER_ROW = 1000
BYTES_PER_DELAY = 500


def check_fits_in_memory(field: str, count: float, what: str, item_bytes: int) -> None:
    """Refuse ``count`` items of at least ``item_bytes`` each that would not
    fit in physical memory, before any array exists.

    int/float comparisons are exact, so nothing overflows.
    """
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
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


def parse_config_file(path, overrides: dict[str, object] | None = None, sweep: bool = True) -> RunConfig:
    """The config of a file, with ``overrides`` (parsed, by key) winning,
    validated (the sweep grid only with ``sweep``)."""
    values: dict[str, object] = {}
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
            try:
                values[key] = CONFIG_KEYS[key](text)
            except ValueError:
                raise ConfigError(key, f"unparseable value {text!r}") from None
    return build_run_config({**values, **(overrides or {})}, sweep)


def build_run_config(values: dict[str, object], sweep: bool = True) -> RunConfig:
    """The default config with ``values`` (parsed, by ``section.key``) set,
    validated (the sweep grid only with ``sweep``)."""
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
    cfg = RunConfig(**sections)
    cfg.validate(sweep)
    return cfg


def _load_config(args) -> RunConfig:
    overrides = {} if args.seed is None else {"sim.seed": args.seed}
    sweep = args.command == "sweep"
    if args.config:
        return parse_config_file(args.config, overrides, sweep)
    return build_run_config(overrides, sweep)


# --- sweep --------------------------------------------------------------------

def _g2_columns(kinds) -> list[str]:
    """Results-table columns: delay, value and error per kind, mean intensities."""
    return ["tau_s", *(f"g2_{k}{s}" for k in kinds for s in ("", "_err")), "i3_mean", "i4_mean"]


def _g2_cells(tau: float, results: list[CorrelationResult], i3_mean: float, i4_mean: float) -> list[str]:
    """The cells of one ``_g2_columns`` row."""
    cells = [_fmt(tau)]
    for r in results:
        cells += [_fmt(r.value), _fmt(r.std_error)]
    return cells + [_fmt(i3_mean), _fmt(i4_mean)]


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
    """The phi34 and delay grids of the sweep, the delays checked against
    its records."""
    phi34s = np.linspace(cfg.sweep.phi34_start, cfg.sweep.phi34_end, cfg.sweep.phi34_steps)
    fields = ("sweep.tau_max", "sweep.tau_steps")
    return phi34s, delay_grid(fields, cfg.sweep.tau_max, cfg.sweep.tau_steps, cfg.sim.dt, cfg.n_samples)


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
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
            os.close(read_fd)
    return points


def sweep_rows(cfg: RunConfig, points: list[PointEstimates]) -> list[list[str]]:
    rows = []
    oracle_self = predict_g2_self(cfg.bench.balance)
    for pt in points:
        omega = solid_angle_of_setup(cfg.bench.phi3, cfg.bench.phi3 + pt.phi34)
        oracle_cross = predict_g2_cross(cfg.bench.phi_d, omega, cfg.bench.balance)
        scans = [getattr(pt, f"g2_{kind}") for kind in SCAN_KINDS]
        for it, tau in enumerate(pt.taus):
            cells = _g2_cells(tau, [scan[it] for scan in scans], pt.i3_mean, pt.i4_mean)
            rows.append([_fmt(pt.phi34), *cells, _fmt(oracle_cross), _fmt(oracle_self)])
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
    scans = scan(traces, taus, kinds)
    i3_mean, i4_mean = mean_intensity(traces, 3), mean_intensity(traces, 4)
    rows = (
        ",".join(_g2_cells(tau, [results[it] for results in scans], i3_mean, i4_mean))
        for it, tau in enumerate(taus)
    )
    write_csv(out_path, "# columns: " + ",".join(_g2_columns(kinds)), rows)


def predict_report(phi3: float, phi4: float, phi_d: float) -> str:
    omega = solid_angle_of_setup(phi3, phi4)
    terms = term_audit(phi3, phi4, phi_d)
    n_zero = sum(1 for t in terms if t.value == 0)
    lines = [
        f"phi3    = {phi3:.9g} rad",
        f"phi4    = {phi4:.9g} rad",
        f"phi_d   = {phi_d:.9g} rad",
        f"omega   = {omega:.9g} sr   (solid angle of the R-4-L-3 polariser loop)",
        f"phi_g   = {omega / 2.0:.9g} rad  (geometric phase, omega/2)",
        f"g2_cross(tau=0) = {predict_g2_cross(phi_d, omega):.9g}",
        f"g2_self(tau=0)  = {predict_g2_self():.9g}",
        "mean intensity  = 0.25 * (<I1> + <I2>) at each detector",
        "",
        "term audit (16 terms; * marks survivors):",
    ]
    for t in terms:
        star = "*" if t.value != 0 else " "
        lines.append(
            f"  {star} {t.label}  {t.kind:<9}  sign={t.sign:+d}"
            f"  magnitude={t.magnitude:.9g}  phase={t.phase:+.9g}"
        )
    lines.append(f"{n_zero} of 16 terms vanish on time averaging")
    lines.append(f"survivor sum = {audit_survivor_sum(terms):.12g}")
    return "\n".join(lines)


# --- argument parsing ----------------------------------------------------------


def _angle_arg(text: str) -> float:
    try:
        return parse_angle(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbt",
        description="Phase-noise intensity-interferometry bench simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write detector traces for one setting")
    p_sweep = sub.add_parser("sweep", help="scan phi34 x tau and write estimates")
    p_an = sub.add_parser("analyze", help="correlate a recorded trace file")
    p_pre = sub.add_parser("predict", help="closed-form predictions and term audit")

    for p in (p_sim, p_sweep):
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument("--seed", type=int, help="override sim.seed")
        p.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel sweep points")

    p_an.add_argument("trace", help="detector-trace CSV (as written by simulate)")
    p_an.add_argument("--out", required=True, help="output CSV path")
    p_an.add_argument("--taus", help="comma-separated delays in seconds")
    p_an.add_argument("--tau-max", type=float, help="delay grid end (seconds), snapped to the file's dt")
    p_an.add_argument("--tau-steps", type=int, default=11, help="delay grid size")
    for kind in SCAN_KINDS:
        p_an.add_argument(f"--{kind}", action="store_true", help=f"estimate g2_{kind} (default: every kind)")

    p_pre.add_argument("--phi3", type=_angle_arg, default=0.0)
    p_pre.add_argument("--phi4", type=_angle_arg, default=0.5 * math.pi)
    p_pre.add_argument("--phi-d", type=_angle_arg, default=0.0)
    return parser


def _analyze_taus(args, traces: DetectorTraces) -> list[float]:
    if args.taus is not None:
        field = "--taus"
        try:
            taus = [float(x) for x in args.taus.split(",") if x.strip()]
        except ValueError:
            raise ConfigError(field, f"unparseable delay list {args.taus!r}") from None
        if not taus:
            raise ConfigError(field, "no delays given")
    elif args.tau_max is not None:
        if args.tau_steps < 1:
            raise ConfigError("--tau-steps", "must be >= 1")
        check_fits_in_memory("--tau-steps", args.tau_steps, "delays", BYTES_PER_DELAY)
        field = "--tau-max"
        grid = delay_grid((field, "--tau-steps"), args.tau_max, args.tau_steps, traces.dt, traces.n)
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
            kinds = [kind for kind in SCAN_KINDS if getattr(args, kind)] or list(SCAN_KINDS)
            traces = load_detector_traces(args.trace)
            cmd_analyze(traces, _analyze_taus(args, traces), kinds, args.out)
        elif args.command == "predict":
            print(predict_report(args.phi3, args.phi4, args.phi_d))
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
