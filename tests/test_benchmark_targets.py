"""The benchmark's hooks into the package, run in tier-1.

``benchmarks/tracing.py`` wraps functions by (module, attribute) name, and
``benchmarks/workloads.py`` checks each operation's outputs; a change in the
package that breaks either would otherwise surface only in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_resolve(monkeypatch):
    tracing = load_benchmark_module("tracing", monkeypatch)
    assert tracing.TARGETS
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("name", ["sweep_default", "sweep_zero_delay", "record_roundtrip", "sweep_parallel"])
def test_benchmark_output_checks_pass(tmp_path, monkeypatch, name):
    # The benchmark's own checks of two operations at a short record: sweep
    # columns, the tau = 0 oracle and z-scores, bytes equal across
    # operations, the traces read back and the serial sweep's bytes.
    workloads = load_benchmark_module("workloads", monkeypatch)
    run = workloads.WorkloadRun(workloads.WORKLOADS[name], 7, tmp_path, "2e-3")
    for _ in range(2):
        assert run.check(run.execute()) == []
    assert run.finish() == []
