"""The benchmark's tracer finds every function it names."""

import importlib.util
from pathlib import Path

import hemoflow.cli  # noqa: F401  loads the modules the tracer searches

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    # a name that does not resolve fails every traced benchmark operation
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}:{name}"
               for layer, (module, names) in tracing.LAYERS.items()
               for name in names if tracing._resolve(module, name) is None]
    assert not missing, f"unresolved traced names: {missing}"
