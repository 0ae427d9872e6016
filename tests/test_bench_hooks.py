"""The benchmark's tracer wraps package functions by name; a rename or
deletion would only drop a per-layer metric with a warning at bench time.
This checks that every hook in ``perfbench/spans.py`` still resolves, and
that every evaluation still passes through the hooked ``SetFunction.value``."""

import importlib
import importlib.util
import pathlib
import pkgutil

import streamsub
from streamsub.oracles import SetFunction

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


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_no_set_function_overrides_value():
    """The ``oracles.fn`` hook wraps ``SetFunction.value`` by class, so a
    subclass with its own ``value`` would hide its evaluations from it."""
    for info in pkgutil.iter_modules(streamsub.__path__):
        if info.name != "__main__":
            importlib.import_module(f"streamsub.{info.name}")
    own = sorted(cls.__qualname__ for cls in subclasses(SetFunction)
                 if cls.__module__.startswith("streamsub.") and "value" in vars(cls))
    assert own == []
