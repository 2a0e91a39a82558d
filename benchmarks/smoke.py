"""Smoke test of the benchmark itself, at a small record size.

    python3 benchmarks/smoke.py

Checks that BENCHMARK.json keeps to its format, that every workload prints
every end-to-end and per-layer metric with its unit and passes its checks,
that traced spans nest and their self times add up to no more than the
operation, that corrupted outputs are counted as failed operations, and
that the benchmark refuses to run without the program's sources.  Exits
non-zero on the first failed check.  Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMALL = "2e-3"  # record length: 20k samples per trace instead of 200k
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json top-level keys")
    check(1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int), "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
              f"workload entry {w['name']}")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end-to-end entry {m['name']}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per-layer entry {m['name']}")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    check(len(names) == len(set(names)), "names are used once")
    check(all(NAME.match(n) for n in names), "name format")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics),
          "unit format")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is present with the largest bound")


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--duration", SMALL],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(workload: str, trace: int, listed: list[dict]) -> dict:
    proc = run_benchmark(workload, trace)
    check(proc.returncode == 0, f"{workload} trace {trace} exits 0: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace {trace} passes its checks: {proc.stdout.splitlines()[-2][-2000:]}")
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in listed}, f"{workload} trace {trace} metric names")
    for m in listed:
        value = metrics[m["name"]]
        check(value["unit"] == m["unit"], f"{workload} {m['name']} unit")
        check(isinstance(value["value"], (int, float)) and math.isfinite(value["value"]),
              f"{workload} {m['name']} is a finite number")
        if not trace:
            check(value["value"] > 0, f"{workload} {m['name']} is positive")
    print(f"smoke: {workload} trace {trace}: {result['attempted']} ops, {len(metrics)} metrics")
    return result


def check_spans(workload: str) -> None:
    """Spans nest, and per operation the layers' self times add up to the
    root span, never more."""
    sys.path.insert(0, str(HERE))
    import tracing

    records = json.loads((HERE / "results" / f"spans-{workload}-seed7-trace1.json").read_text())
    spans = [tracing.Span(r["name"], r["start"], r["end"], r["parent"], r["op"]) for r in records]
    check(spans and not tracing.nesting_errors(spans), f"{workload} spans nest")
    own = tracing.self_times(spans)
    for op in {s.op for s in spans}:
        root = sum(s.end - s.start for s in spans if s.op == op and s.parent is None)
        layers = {}
        for s, t in zip(spans, own):
            if s.op == op:
                layer = s.name.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + t
        check(all(t >= -1e-9 for t in layers.values()), f"{workload} op {op} self times >= 0")
        check(sum(layers.values()) <= root * (1 + 1e-9) + 1e-9,
              f"{workload} op {op} layer self times exceed the root span")
        check(set(layers) <= set(tracing.LAYERS), f"{workload} op {op} layer names")


def check_corruption() -> None:
    """A damaged output is a failed operation, whichever check catches it."""
    sys.path.insert(0, str(HERE))
    import run

    run.import_program()
    import workloads

    def damage(path: Path, edit) -> None:
        lines = path.read_text(encoding="utf-8").split("\n")
        edit(lines)
        path.write_text("\n".join(lines), encoding="utf-8")

    def set_cell(row: int, col: int, text: str):
        def edit(lines):
            cells = lines[row].split(",")
            cells[col] = text
            lines[row] = ",".join(cells)
        return edit

    def shift_cell(row: int, col: int, by: float):
        def edit(lines):
            cells = lines[row].split(",")
            cells[col] = repr(float(cells[col]) + by)
            lines[row] = ",".join(cells)
        return edit

    cases = [
        # (workload, output, edit, words the failure message must contain)
        ("sweep_default", "sweep", set_cell(5, 2, "nan"), "not finite"),
        ("sweep_default", "sweep", lambda lines: lines.pop(3), "rows, expected"),
        ("sweep_default", "sweep", shift_cell(1, 2, 1.0), "standard errors from the oracle"),
        ("sweep_default", "sweep", shift_cell(2, 2, 1e-12), "differ from the first operation"),
        ("sweep_parallel", "sweep", shift_cell(2, 2, 1e-12), "differ from the serial sweep"),
        ("record_roundtrip", "g2", shift_cell(1, 1, 1.0), "standard errors from the oracle"),
        ("record_roundtrip", "detectors", shift_cell(9, 0, 1e-9), "not bitwise equal"),
    ]
    for i, (name, output, edit, words) in enumerate(cases):
        work = HERE / "results" / f"smoke-corrupt-{i}"
        try:
            wr = workloads.WorkloadRun(workloads.WORKLOADS[name], 7, work, SMALL)
            # Held against a reference run of its own: the first operation's
            # outputs, by finish() after the measurement.
            by_finish = output == "detectors" or wr.workload.workers > 1
            if not by_finish:
                check(run.run_operation(wr)["failures"] == [], f"{name} clean operation passes")
            op = run.run_operation(wr, corrupt=lambda r: damage(r.outputs[output], edit))
            failures = op["failures"] + (wr.finish() if by_finish else [])
            check(any(words in msg for msg in failures),
                  f"{name}: corrupted {output} is caught ({words!r}): {failures}")
        finally:
            shutil.rmtree(work, ignore_errors=True)

    # A set-up interpreter that fails counts against the operation it follows.
    work = HERE / "results" / "smoke-corrupt-setup"
    try:
        wr = workloads.WorkloadRun(workloads.WORKLOADS["sweep_default"], 7, work, SMALL)
        wr.config_path.write_text("no.such.key = 1\n", encoding="utf-8")
        op = {"failures": []}
        run.setup_once(wr, op)
        check(any("set-up interpreter exit code" in msg for msg in op["failures"]),
              f"a failing set-up interpreter is caught: {op['failures']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Counted as failed operations by the measuring loop.
    work = HERE / "results" / "smoke-corrupt-count"
    try:
        wr = workloads.WorkloadRun(workloads.WORKLOADS["sweep_default"], 7, work, SMALL)
        seen = []

        def corrupt(r):  # damages operations 2, 5, 8, ...
            if len(seen) % 3 == 2:
                damage(r.outputs["sweep"], shift_cell(4, 2, 1e-12))
            seen.append(None)

        ops, _, _ = run.measure(wr, 0.0, False, corrupt=corrupt)
        expected = sum(1 for k in range(len(ops)) if k % 3 == 2)
        failed = sum(1 for o in ops if o["failures"])
        check(failed == expected > 0, f"corrupted operations counted: {failed} of {expected}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"smoke: {len(cases)} corruptions and a failed set-up caught;"
          f" {expected} damaged operations counted as failed")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark exits non-zero, no result."""
    bare = HERE / "results" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "benchmarks").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "benchmarks")
        proc = run_benchmark("sweep_default", 0, cwd=bare)
        check(proc.returncode != 0, "bare directory exits non-zero")
        check("correct" not in proc.stdout, "bare directory prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: bare directory refused")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    for w in spec["workloads"]:
        check_result(w["name"], 0, spec["end_to_end"])
        check_result(w["name"], 1, spec["per_layer"])
        check_spans(w["name"])
    check_corruption()
    check_bare_directory()
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
