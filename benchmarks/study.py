"""Repeated benchmark runs: the steadiness study and the traced layer split.

    python3 benchmarks/study.py --runs 10                # end-to-end spread
    python3 benchmarks/study.py --runs 1 --trace         # traced pass, all workloads

Runs ``run.py`` once per (workload, seed), one after the other, each with a
different seed.  Without ``--trace`` it prints, for every end-to-end metric,
the median and the distance between the first and third quartiles as a share
of the median, next to the metric's bound in BENCHMARK.json.  With
``--trace`` it prints each layer's share of the traced self time and the
tracing overhead.  Everything is also written to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.splitlines()
    return {**json.loads(lines[-1]), "report": json.loads(lines[-2])["report"]}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    results: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = []
        for i in range(args.runs):
            t0 = time.perf_counter()
            r = run_once(workload, args.first_seed + i, spec["run_seconds"], args.trace)
            results[workload].append(r)
            print(f"# {workload} seed {args.first_seed + i}: {time.perf_counter() - t0:.1f} s,"
                  f" {r['attempted']} ops, {r['failed']} failed,"
                  f" oracle z rms {r['report']['oracle_z']['rms']:.2f}"
                  f" max {r['report']['oracle_z']['max_abs']:.2f}", flush=True)

    summary: dict[str, dict] = {}
    for workload, runs in results.items():
        summary[workload] = {"failed": sum(r["failed"] for r in runs),
                             "attempted": sum(r["attempted"] for r in runs)}
        if args.trace:
            for r in runs:
                m = {k: v["value"] for k, v in r["metrics"].items()}
                total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
                shares = {layer: m[f"{layer}.self_s"] / total for layer in LAYERS}
                print(f"{workload:18s} " + " ".join(f"{k} {v:5.1%}" for k, v in shares.items())
                      + f"  trace.overhead_s {m['trace.overhead_s']:+.4f}")
                summary[workload].setdefault("layer_shares", []).append(shares)
                summary[workload].setdefault("trace_overhead_s", []).append(m["trace.overhead_s"])
            continue
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            row = {"median": statistics.median(values), "min": min(values), "max": max(values),
                   "values": values}
            if len(values) >= 2:
                row["spread"] = spread(values)
            summary[workload][metric["name"]] = row
            flag = ""
            if "spread" in row and metric["name"] != "setup_s":
                flag = "ok" if row["spread"] < metric["bound"] / 3 else "WIDE"
            print(f"{workload:18s} {metric['name']:15s} median {row['median']:10.4f}"
                  f" spread {row.get('spread', float('nan')):6.1%}"
                  f" bound {metric['bound']:.0%} {flag}")

    (HERE / "results").mkdir(exist_ok=True)
    path = HERE / "results" / f"study-{'trace' if args.trace else 'e2e'}.json"
    path.write_text(json.dumps({"args": vars(args), "summary": summary}, indent=1), encoding="utf-8")
    print(f"# written {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
