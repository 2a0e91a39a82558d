"""hbtsim benchmark: one workload, one seed, a fixed measuring time.

    python3 benchmarks/run.py --workload sweep_default --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Each operation drives the ``hbt`` entry
point in-process as a closed loop with one client: the next operation starts
when the previous one has finished.  Only ``sweep_parallel`` starts worker
processes (2, through ``--workers``).  A run times a fixed number of
operations, set by the workload and ``--seconds`` (``Workload.timed_ops``),
so that it lasts about ``--seconds`` on the development host and every
commit is ranked over the same count.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics, from spans recorded around each layer's
public functions (see ``tracing.py``), plus ``trace.overhead_s``.  Every
operation's outputs are checked (see ``workloads.py``); an operation whose
check fails counts as failed.  The last line of standard output is the
result as one JSON object; the line before it is a report with provenance
and diagnostics, also written to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results"
MEASURE_LIMIT_S = 120.0  # a slowdown that runs past this fails the wall_s bound anyway
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import hbtsim.cli; "
    "hbtsim.cli.parse_config_file(sys.argv[2])"
)
# A fresh interpreter's set-up time moves with the host's speed phases (by up
# to 29 % between two sets of runs on the development host), much more than
# the in-process operations do.  Each sample is therefore paired with a fresh
# interpreter that imports numpy only, and setup_s is the median ratio of the
# two at this baseline time, a typical ``import numpy`` on the development
# host.  The ratio moves only with the program's own set-up cost.
BASELINE_CODE = "import numpy"
BASELINE_S = 0.17


def import_program():
    """Import hbtsim from this checkout's ``src/``, and nowhere else."""
    if not (SRC / "hbtsim" / "__init__.py").is_file():
        raise ImportError(f"no hbtsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hbtsim

    if not Path(hbtsim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"hbtsim was imported from {hbtsim.__file__}, not {SRC}")
    return hbtsim


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_info() -> dict:
    info = {"cpu_model": platform.processor() or "unknown", "cache_bytes": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info["cache_bytes"][f"L{level}"] = int(size.rstrip("K")) * 1024
    except (OSError, ValueError):
        pass
    return info


def provenance(numpy_version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hbtsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        **_cpu_info(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_operation(run, tracer=None, op: int = 0, corrupt=None) -> dict:
    """Run and check one operation.  ``corrupt``, a test hook, may damage
    the outputs between the run and the check."""
    child0, cpu0, t0 = _children_cpu(), time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            codes = run.execute()
        else:
            with tracer.installed(op):
                codes = run.execute()
    except Exception:  # a crash of the program is a failed operation, not a stop
        codes = None
        crash = traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    child_cpu = _children_cpu() - child0
    cpu = time.process_time() - cpu0 + child_cpu
    if codes is None:
        failures = [f"crashed: {crash}"]
    else:
        if corrupt is not None:
            corrupt(run)
        failures = run.check(codes)
    return {"op": op, "wall_s": wall, "cpu_s": cpu, "child_cpu_s": child_cpu,
            "traced": tracer is not None, "failures": failures}


def setup_once(run, op: dict) -> tuple[float, float]:
    """Wall times of a fresh interpreter that imports hbtsim and parses the
    workload's config, as every ``hbt`` call pays it, and of the baseline
    interpreter right after it.  If either fails, the operation ``op`` that
    they follow is counted as failed."""
    times = []
    for code, args in ((SETUP_CODE, [str(SRC), str(run.config_path)]), (BASELINE_CODE, [])):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code, *args], cwd=ROOT, stderr=subprocess.PIPE, text=True,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            op["failures"].append(f"set-up interpreter exit code {proc.returncode}: {proc.stderr[-500:]}")
    return times[0], times[1]


def measure(run, seconds: float, trace: bool, corrupt=None):
    """Operation 0 warms up and fixes the reference outputs; then the
    workload's fixed number of operations for ``seconds`` is timed.  With
    ``trace`` every second operation is traced; without, a set-up sample
    follows every second operation, so that set-up time is sampled across
    the whole run and not in one burst."""
    tracer = tracing.Tracer() if trace else None
    ops = [run_operation(run, op=0, corrupt=corrupt)]
    setup: list[tuple[float, float]] = []
    limit = time.perf_counter() + MEASURE_LIMIT_S
    for op in range(1, run.workload.timed_ops(seconds) + 1):
        traced = trace and op % 2 == 0
        ops.append(run_operation(run, tracer if traced else None, op, corrupt))
        if not trace and op % 2 == 0:
            setup.append(setup_once(run, ops[-1]))
        if op >= 2 and time.perf_counter() > limit:
            break
    return ops, tracer, setup


def peak_rss_mb(run) -> tuple[float, str]:
    """Peak resident memory of the benchmark process, plus for a pool the
    largest child's peak once per worker.  Forked workers share pages with
    the parent, so the sum is an upper bound.  The children also include the
    set-up interpreters, which are smaller than a worker forked from the
    parent."""
    workers = run.workload.workers
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workers == 1:
        return parent, f"parent peak {parent:.1f} MB"
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return parent + workers * child, f"parent peak {parent:.1f} MB + {workers} x largest child peak {child:.1f} MB"


def end_to_end_metrics(run, ops, setup: list[tuple[float, float]], peak: tuple[float, str]) -> tuple[dict, dict]:
    walls = sorted(o["wall_s"] for o in ops[1:])
    n = len(walls)
    tail_index = max(0, n - 11)  # ten operations lie beyond this one
    percentile = 100.0 * (tail_index + 1) / n
    wall = statistics.median(walls)
    metrics = {
        "setup_s": BASELINE_S * statistics.median(a / b for a, b in setup),
        "wall_s": wall,
        "wall_s_tail": walls[tail_index],
        "cpu_s": statistics.median(o["cpu_s"] for o in ops[1:]),
        "msamples_per_s": run.samples_per_op() / wall / 1e6,
        "peak_rss_mb": peak[0],
    }
    notes = {
        "wall_s_tail": f"p{percentile:.0f} of {n} timed operations"
        + ("; at or below the median, not a tail: too few operations fit into the run"
           if tail_index + 1 <= (n + 1) / 2 else ""),
        "setup_s": f"median of {len(setup)} set-up / baseline ratios x {BASELINE_S} s; raw medians"
        f" {statistics.median(a for a, _ in setup):.4f} s and {statistics.median(b for _, b in setup):.4f} s",
        "setup_s_samples": setup,
        "peak_rss_mb": peak[1],
    }
    return metrics, notes


def layer_metrics(run, ops, tracer) -> tuple[dict, dict]:
    by_op: dict[int, tuple[list, list]] = {}
    for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
        spans, selfs = by_op.setdefault(span.op, ([], []))
        spans.append(span)
        selfs.append(own)
    traced = [o for o in ops[1:] if o["traced"]]
    untraced = [o for o in ops[1:] if not o["traced"]]
    per_op = [
        tracing.op_layer_metrics(*by_op.get(o["op"], ([], [])), o["child_cpu_s"], run.workload.workers)
        for o in traced
    ]
    # median_low: every figure is one traced operation's own, so counts stay exact
    metrics = {name: statistics.median_low(m[name] for m in per_op) for name in per_op[0]}
    traced_wall = statistics.median(o["wall_s"] for o in traced)
    untraced_wall = statistics.median(o["wall_s"] for o in untraced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    root = [s for s in tracer.spans if s.parent is None]
    notes = {
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "spans_per_op": len(tracer.spans) / len(traced),
        "root_spans_s": statistics.median(
            sum(s.end - s.start for s in root if s.op == o["op"]) for o in traced
        ),
        "nesting_errors": tracing.nesting_errors(tracer.spans)[:5],
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--duration", help="record length override (seconds) for quick smoke runs")
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        hbtsim = import_program()
    except (OSError, ValueError, ImportError) as exc:
        print(f"benchmark: cannot start: {exc}", file=sys.stderr)
        return 2
    import numpy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 63:
        print("benchmark: --seed must be a non-negative 63-bit integer", file=sys.stderr)
        return 2

    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = RESULTS / f"work-{tag}-{os.getpid()}"
    try:
        run = workloads.WorkloadRun(workloads.WORKLOADS[args.workload], args.seed, work_dir, args.duration)
        ops, tracer, setup = measure(run, args.seconds, bool(args.trace))
        peak = peak_rss_mb(run)  # before finish() runs references of its own
        for problem in run.finish():
            for o in ops:
                o["failures"].append(problem)
        csv_bytes = run.csv_bytes()
        if args.trace:
            metrics, notes = layer_metrics(run, ops, tracer)
            listed = spec["per_layer"]
            with open(RESULTS / f"spans-{tag}.json", "w", encoding="utf-8") as fh:
                json.dump(tracer.as_records(), fh)
        else:
            metrics, notes = end_to_end_metrics(run, ops, setup, peak)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [o for o in ops if o["failures"]]
    z = run.z_scores
    prov = provenance(numpy.__version__)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client" + (f", {run.workload.workers} pool workers" if run.workload.workers > 1 else ""),
        "operations": len(ops),
        "op_wall_s": [o["wall_s"] for o in ops],
        "metrics": metrics,
        "notes": notes,
        "oracle_z": {
            "count": len(z),
            "rms": math.sqrt(sum(x * x for x in z) / len(z)) if z else None,
            "max_abs": max(map(abs, z)) if z else None,
        },
        "failures": [f"op {o['op']}: {msg}" for o in failed for msg in o["failures"]][:20],
        "input_size": {
            "samples_per_trace": run.samples_per_trace,
            "dt_s": run.cfg.sim.dt,
            "duration_s": run.cfg.sim.duration,
            "field_traces_per_op": run.field_traces_per_op(),
            "samples_per_op": run.samples_per_op(),
            "csv_bytes_per_op": csv_bytes,
            "largest_array_bytes": 16 * run.samples_per_trace,
            "largest_array_fits_l3": 16 * run.samples_per_trace < prov["cache_bytes"].get("L3", 0),
            "bytes_note": "byte figures are computed from array sizes; the arrays fit "
                          "in cache, so no bandwidth or roofline ratio is claimed",
        },
        "provenance": prov,
        "hbtsim_version": hbtsim.__version__,
    }
    with open(RESULTS / f"report-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"report": report}))
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
