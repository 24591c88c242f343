"""The package's public names all resolve, and so does every function
the benchmark's tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import nomalab

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_exported_name_resolves():
    missing = [name for name in nomalab.__all__ if not hasattr(nomalab, name)]
    assert missing == []


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, names in tracer.TRACED.items():
        defined = importlib.import_module(f"nomalab.{module}")
        missing += [f"{module}.{name}" for name in names
                    if not callable(getattr(defined, name, None))]
    assert missing == []
