"""The traced benchmark run wraps library functions by name; keep them resolvable."""

import importlib.util
from pathlib import Path

import hooktrees

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, *_ in spans.TARGETS:
        assert callable(getattr(getattr(hooktrees, module), attr, None)), f"{module}.{attr}"
