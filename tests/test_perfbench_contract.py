"""The names the benchmark's tracer (perfbench/tracing.py) binds in
lambertwave, and the build_wavelet calls of its scripts: a rename or a
dropped parameter fails here before it breaks a benchmark run.  The
tracer module is loaded, never installed; the scripts are only parsed."""

import ast
import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np

from lambertwave import BellEvaluator, GridSpec, build_mollifier
from lambertwave.bell import build_wavelet, synthesize_psi_lattice

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
A = math.pi / 6.0


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
    ph = BellEvaluator(A)
    args, kwargs = (ph, 2.0 ** 11, 2 ** 14), {"check_periodization": False, "q": 2}
    result = synthesize_psi_lattice(*args, **kwargs)
    assert result.grid.values.shape == (2 ** 14,)
    attrs = _load_tracing()._synth_attrs(synthesize_psi_lattice, args, kwargs, result)
    assert attrs["points"] == 2 ** 14


def test_build_wavelet_call_shapes():
    # every build_wavelet call in the benchmark's scripts still binds:
    # child.py's build_wavelet() and selftest.py's (sigma=, a=, L=, N=)
    sig = inspect.signature(build_wavelet)
    shapes = []
    for script in ("child.py", "selftest.py"):
        tree = ast.parse((TRACING.parent / script).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "build_wavelet" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                shapes.append((len(node.args), tuple(k.arg for k in node.keywords)))
    assert sorted(shapes) == [(0, ()), (0, ("sigma", "a", "L", "N"))]
    for n_args, keywords in shapes:
        sig.bind(*[0] * n_args, **dict.fromkeys(keywords, 0))


def test_mollifier_build_feeds_the_recorder():
    # the cascade recorder counts result.scales: mollifier.cascade_factors
    args = (2.0, GridSpec.symmetric(1.5, 13))
    result = build_mollifier(*args)
    attrs = _load_tracing()._factors(build_mollifier, args, {}, result)
    assert attrs["factors"] == len(result.scales) > 1


def test_bell_at_feeds_the_point_recorder():
    # bell.bell_at_points counts the points of args[1]: bell_at must keep
    # xi as its first parameter after self, for every shape it is given
    tracing = _load_tracing()
    (recorder,) = [r for _, attr, _, r in tracing.TRACED if attr == "BellEvaluator.bell_at"]
    assert list(inspect.signature(BellEvaluator.bell_at).parameters) == ["self", "xi"]
    ph = BellEvaluator(A)
    for xi in (np.linspace(0.0, 7.0, 101), np.zeros((4, 6, 10)), math.pi):
        args = (ph, xi)
        attrs = recorder(BellEvaluator.bell_at, args, {}, ph.bell_at(xi))
        assert attrs == {"points": np.size(xi)}
