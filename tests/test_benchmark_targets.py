"""Every layer function the benchmark's tracer patches must exist.

``benchmarks/tracing.py`` wraps functions by (module, attribute) name; a
rename in the package would otherwise surface only in a traced benchmark
run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_tracing_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
