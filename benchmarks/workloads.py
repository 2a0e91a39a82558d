"""The benchmark's workloads: what one operation runs and how it is checked.

Every operation drives the real ``hbt`` entry point in-process through
``hbtsim.cli.main`` (looked up at call time, so the tracer can wrap it).
All workloads run at ``bench.phi_d = 0``: at ``phi_d != 0`` the sweep's
simulated values disagree with its own oracle columns, a known defect that
this benchmark leaves out rather than counts as passing.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import hbtsim.cli
from hbtsim.bench import load_detector_traces
from hbtsim.pipeline import simulate_detectors

# Spelled out in full so that a later change of the package defaults does
# not silently change the benchmark's inputs.
BASE_CONFIG = {
    "source.t_c": "1e-5",
    "source.t_min": "1e-6",
    "source.t_max": "1e-4",
    "bench.phi3": "0",
    "bench.phi4": "90 deg",
    "bench.phi_d": "0",
    "sim.dt": "1e-7",
    "sim.duration": "2e-2",
    "sim.repeats": "1",
    "sweep.phi34_start": "0",
    "sweep.phi34_end": "360 deg",
    "sweep.phi34_steps": "13",
    "sweep.tau_max": "5e-5",
    "sweep.tau_steps": "11",
}

Z_LIMIT = 5.0  # tau = 0 estimates must sit within 5 of their own standard errors
KINDS = ("cross", "self3", "self4")


MIN_TIMED_OPS = 11  # so that some percentile has ten operations beyond it


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sweep" or "roundtrip"
    op_s: float  # seconds per operation, set-up samples included, on the development host
    overrides: dict = field(default_factory=dict)
    workers: int = 1

    def timed_ops(self, seconds: float) -> int:
        """The number of timed operations: about ``seconds`` worth at
        ``op_s``, but fixed by the workload and ``seconds`` alone, so that a
        faster or slower commit times as many operations and its order
        statistics (``wall_s_tail``) are the same percentile."""
        return max(MIN_TIMED_OPS, round(seconds / self.op_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_default", "sweep", 1.4),
        Workload(
            "sweep_zero_delay", "sweep", 1.8,
            {"sim.repeats": "3", "sweep.tau_max": "0", "sweep.tau_steps": "1"},
        ),
        Workload("record_roundtrip", "roundtrip", 1.15),
        Workload("sweep_parallel", "sweep", 0.8, workers=2),
    )
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_rows(path: Path, n_columns: int) -> tuple[list[list[float]], list[str]]:
    """Numeric rows of a results CSV, and what is wrong with them."""
    rows, problems = [], []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            problems.append(f"{path.name}:{lineno}: unparseable row")
            continue
        if len(row) != n_columns:
            problems.append(f"{path.name}:{lineno}: {len(row)} columns, expected {n_columns}")
        elif not all(math.isfinite(x) for x in row):
            problems.append(f"{path.name}:{lineno}: value not finite")
        rows.append(row)
    return rows, problems


def closed_form(phi34: float, phi_d: float) -> dict[str, float]:
    """Zero-delay oracle: g2_cross = 1 - cos(phi_d + omega/2)/2 with
    omega = 4*phi34, and g2_self = 1 + cos(phi_d)/2 at both detectors."""
    cross = 1.0 - 0.5 * math.cos(phi_d + 2.0 * phi34)
    self_ = 1.0 + 0.5 * math.cos(phi_d)
    return {"cross": cross, "self3": self_, "self4": self_}


class WorkloadRun:
    """One benchmark run of a workload: its config, outputs and references."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, duration: str | None = None):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)
        values = {**BASE_CONFIG, **workload.overrides}
        if duration is not None:
            values["sim.duration"] = duration
        self.config_path = work_dir / "run.cfg"
        self.config_path.write_text(
            "".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8"
        )
        cfg = hbtsim.cli.parse_config_file(self.config_path)
        self.cfg = replace(cfg, sim=replace(cfg.sim, seed=seed))
        self.outputs = (
            {"sweep": work_dir / "sweep.csv"}
            if workload.command == "sweep"
            else {"detectors": work_dir / "detectors.csv", "g2": work_dir / "g2.csv"}
        )
        self.reference: dict[str, str] = {}  # output -> sha256 of the first operation
        self.first_detectors = work_dir / "first-detectors.csv"  # record_roundtrip's operation 0
        self.z_scores: list[float] = []

    # --- sizes --------------------------------------------------------------

    @property
    def samples_per_trace(self) -> int:
        return int(round(self.cfg.sim.duration / self.cfg.sim.dt))

    def field_traces_per_op(self) -> int:
        if self.workload.command == "sweep":
            return 2 * self.cfg.sweep.phi34_steps * self.cfg.sim.repeats
        return 2

    def samples_per_op(self) -> int:
        """Trace samples generated (field traces) plus ingested (detector
        samples read back by ``hbt analyze``) by one operation."""
        generated = self.field_traces_per_op() * self.samples_per_trace
        ingested = 2 * self.samples_per_trace if self.workload.command == "roundtrip" else 0
        return generated + ingested

    def csv_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.outputs.values() if p.exists())

    # --- one operation -------------------------------------------------------

    def argvs(self) -> list[list[str]]:
        common = ["--config", str(self.config_path), "--seed", str(self.seed)]
        if self.workload.command == "sweep":
            argv = ["sweep", *common, "--out", str(self.outputs["sweep"])]
            if self.workload.workers > 1:
                argv += ["--workers", str(self.workload.workers)]
            return [argv]
        sweep = self.cfg.sweep
        return [
            ["simulate", *common, "--out", str(self.outputs["detectors"])],
            [
                "analyze", str(self.outputs["detectors"]),
                "--tau-max", repr(sweep.tau_max), "--tau-steps", str(sweep.tau_steps),
                "--out", str(self.outputs["g2"]),
            ],
        ]

    def execute(self) -> list[int]:
        """Run the operation's commands in order; stop at the first failure."""
        for path in self.outputs.values():
            path.unlink(missing_ok=True)
        codes = []
        for argv in self.argvs():
            codes.append(hbtsim.cli.main(argv))
            if codes[-1] != 0:
                break
        return codes

    # --- checks ----------------------------------------------------------------

    def check(self, codes: list[int]) -> list[str]:
        """Everything wrong with the outputs of the operation just run."""
        if len(codes) != len(self.argvs()) or any(codes):
            return [f"exit codes {codes}"]
        missing = [name for name, p in self.outputs.items() if not p.exists()]
        if missing:
            return [f"missing outputs {missing}"]
        first = not self.reference
        if self.workload.command == "sweep":
            problems = self._check_sweep()
        else:
            problems = self._check_roundtrip()
        for name, path in self.outputs.items():
            digest = _sha256(path)
            if first:
                self.reference[name] = digest
            elif digest != self.reference[name]:
                problems.append(f"{path.name} bytes differ from the first operation")
        if first and self.workload.command == "roundtrip":
            shutil.copyfile(self.outputs["detectors"], self.first_detectors)
        return problems

    def finish(self) -> list[str]:
        """The checks that need a reference run of their own, made after the
        measurement so that they raise neither its time nor its peak memory:
        ``sweep_parallel``'s bytes against a serial sweep at the same seed,
        and ``record_roundtrip``'s traces read back against a fresh
        ``simulate_detectors``.  They test the first operation's outputs,
        which every later operation must match byte for byte; a problem
        found here therefore fails every operation."""
        if not self.reference:
            return []  # the first operation failed before its outputs were fixed
        try:
            if self.workload.workers > 1:
                return self._check_serial()
            if self.workload.command == "roundtrip":
                return self._check_read_back()
        except Exception as exc:  # a crash of the program is a failure, not a stop
            return [f"reference run crashed: {exc!r}"]
        return []

    def _z_checks(self, estimates: dict[str, tuple[float, float]], oracle: dict[str, float], where: str) -> list[str]:
        problems = []
        for kind, (value, err) in estimates.items():
            if not err > 0.0:
                problems.append(f"{where}: g2_{kind} has standard error {err!r}")
                continue
            z = (value - oracle[kind]) / err
            self.z_scores.append(z)
            if abs(z) > Z_LIMIT:
                problems.append(f"{where}: g2_{kind} is {z:+.2f} standard errors from the oracle")
        return problems

    def _check_sweep(self) -> list[str]:
        sweep = self.cfg.sweep
        rows, problems = _read_rows(self.outputs["sweep"], 12)
        if len(rows) != sweep.phi34_steps * sweep.tau_steps:
            problems.append(f"sweep.csv has {len(rows)} rows, expected {sweep.phi34_steps * sweep.tau_steps}")
        if problems:
            return problems
        self.z_scores = []
        for row in rows:
            phi34, tau = row[0], row[1]
            if tau != 0.0:
                continue
            oracle = closed_form(phi34, self.cfg.bench.phi_d)
            where = f"phi34={phi34:.4f}"
            if abs(row[10] - oracle["cross"]) > 1e-9 or abs(row[11] - oracle["self3"]) > 1e-9:
                problems.append(f"{where}: oracle columns disagree with the closed form")
            estimates = {"cross": (row[2], row[3]), "self3": (row[4], row[5]), "self4": (row[6], row[7])}
            problems += self._z_checks(estimates, oracle, where)
        return problems

    def _check_serial(self) -> list[str]:
        out = self.work_dir / "serial.csv"
        argv = self.argvs()[0]
        argv = argv[: argv.index("--out")] + ["--out", str(out)]
        code = hbtsim.cli.main(argv)
        if code != 0:
            return [f"serial reference sweep exit code {code}"]
        if _sha256(out) != self.reference["sweep"]:
            return ["parallel sweep bytes differ from the serial sweep"]
        return []

    def _check_read_back(self) -> list[str]:
        sim = self.cfg.sim
        try:
            loaded = load_detector_traces(self.first_detectors)
        except ValueError as exc:
            return [f"detectors.csv does not load: {exc}"]
        simulated = simulate_detectors(self.cfg.source, self.cfg.bench, sim.duration, sim.dt, sim.seed)
        problems = []
        if len(loaded) != self.samples_per_trace:
            problems.append(f"detectors.csv has {len(loaded)} rows, expected {self.samples_per_trace}")
        if loaded.dt != simulated.dt or any(
            a.tobytes() != b.tobytes()
            for a, b in ((loaded.i3, simulated.i3), (loaded.i4, simulated.i4))
        ):
            problems.append("traces read back are not bitwise equal to the simulated ones")
        return problems

    def _check_roundtrip(self) -> list[str]:
        sweep, bench = self.cfg.sweep, self.cfg.bench
        rows, problems = _read_rows(self.outputs["g2"], 1 + 2 * len(KINDS) + 2)
        if len(rows) != sweep.tau_steps:
            problems.append(f"g2.csv has {len(rows)} rows, expected {sweep.tau_steps}")
        if problems:
            return problems
        self.z_scores = []
        zero = rows[0]
        estimates = {kind: (zero[1 + 2 * i], zero[2 + 2 * i]) for i, kind in enumerate(KINDS)}
        oracle = closed_form(bench.phi4 - bench.phi3, bench.phi_d)
        problems += self._z_checks(estimates, oracle, "analyze tau=0")
        return problems
