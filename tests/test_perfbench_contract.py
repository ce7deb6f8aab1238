"""The names the benchmark's tracer (perfbench/tracing.py) binds in
lambertwave: a rename or a dropped parameter fails here before it breaks a
traced benchmark run.  The tracer module is read, never installed."""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

from lambertwave import GridSpec, bell, build_mollifier, dilate_normalize
from lambertwave.bell import synthesize_psi_lattice

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
A = math.pi / 6.0
HALF_PI = math.pi / 2.0


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    tracing = _load_tracing()
    assert tracing.TRACED
    for owner, attr, _, _ in tracing.TRACED:
        obj = importlib.import_module(f"lambertwave.{owner}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (owner, attr)
    # the synthesis recorder binds these by name
    params = inspect.signature(synthesize_psi_lattice).parameters
    assert {"N", "check_periodization"} <= set(params)


def test_synthesis_result_feeds_the_recorder():
    # the synthesis recorder hashes result.grid.values; a period this short
    # cannot meet the periodization bar, so the check is off
    master = build_mollifier(2.0, GridSpec.symmetric(1.5, 10), cutoff=0.2, base="cone")
    ph = bell(A, dilate_normalize(master.phi, A, HALF_PI),
              dilate_normalize(master.phi, 2.0 * A, HALF_PI))
    args, kwargs = (ph, 2.0 ** 11, 2 ** 14), {"check_periodization": False, "q": 2}
    result = synthesize_psi_lattice(*args, **kwargs)
    assert result.grid.values.shape == (2 ** 14,)
    attrs = _load_tracing()._synth_attrs(synthesize_psi_lattice, args, kwargs, result)
    assert attrs["points"] == 2 ** 14
