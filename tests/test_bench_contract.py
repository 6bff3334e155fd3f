"""The benchmark's tracer wraps qeswell functions by name; keep them there."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up here
    spec.loader.exec_module(tracing)
    for module_name, attr in tracing.TRACED:
        module = importlib.import_module(f"qeswell.{module_name}")
        assert callable(getattr(module, attr, None)), f"qeswell.{module_name}.{attr}"
