"""The benchmark's tracer wraps package functions by name; a rename or
deletion would only drop a per-layer metric with a warning at bench time.
This checks that every hook in ``perfbench/spans.py`` still resolves."""

import importlib.util
import pathlib

SPANS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves():
    spans = load_spans()
    hooks = [hook for table in (spans.HOT, spans.COUNTED, spans.SPANS)
             for entries in table.values() for hook in entries]
    assert hooks
    missing = [f"{module}.{path}" for module, path in hooks
               if spans.resolve(module, path) is None]
    assert missing == []
