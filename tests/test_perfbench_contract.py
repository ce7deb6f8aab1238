"""The names the benchmark's tracer (perfbench/tracing.py) binds in
lambertwave: a rename or a dropped parameter fails here before it breaks a
traced benchmark run.  The tracer module is read, never installed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from lambertwave.bell import synthesize_psi_lattice

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for owner, attr, _, _ in tracing.TRACED:
        obj = importlib.import_module(f"lambertwave.{owner}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (owner, attr)
    # the synthesis recorder binds these by name
    params = inspect.signature(synthesize_psi_lattice).parameters
    assert {"N", "check_periodization"} <= set(params)
