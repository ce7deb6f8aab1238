"""Lambert W evaluator: defining identity, bounds, shape, and error paths."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from lambertwave import (
    ConvergenceError,
    DomainError,
    lambert,
    lambert_w0,
)


def w_bisect(x, lo=0.0, hi=None):
    """Independent oracle: bisection on the strictly increasing w * e^w."""
    if hi is None:
        hi = max(4.0, math.log(max(x, 2.0)) + 1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_anchor_values():
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(math.e) - 1.0) < 1e-14


def test_against_bisection_oracle():
    # frozen from the oracle, refined to 1e-12
    assert abs(w_bisect(10.0) - 1.7455280027406994) < 1e-12
    assert abs(lambert_w0(10.0) - 1.7455280027406994) < 1e-12
    for x in (0.5, 2.0, 37.0, 1e4, 1e8):
        assert abs(lambert_w0(x) - w_bisect(x, hi=25.0)) < 1e-11 * max(1.0, w_bisect(x, hi=25.0))


def test_identity_residual_log_grid():
    xs = np.logspace(-6, 8, 1000)
    w = lambert_w0(xs)
    resid = np.abs(w * np.exp(w) - xs) / np.maximum(1.0, xs)
    assert np.max(resid) <= 1e-12


def test_round_trip():
    wg = np.linspace(0.0, 50.0, 501)
    xg = wg * np.exp(wg)
    back = lambert_w0(xg)
    denom = np.maximum(np.abs(wg), 1e-30)
    assert np.max(np.abs(back - wg) / denom) <= 1e-10


def test_monotone_and_concave():
    xs = np.linspace(0.0, 100.0, 2001)
    w = lambert_w0(xs)
    d1 = np.diff(w)
    d2 = np.diff(w, 2)
    assert np.all(d1 >= 0)
    assert np.all(d2 <= 1e-12)


def test_asymptotic_ratio():
    xs = np.logspace(2, 8, 13)
    ratios = np.abs(lambert_w0(xs) / np.log(xs) - 1.0)
    assert ratios[-1] <= 0.25
    assert np.all(np.diff(ratios) < 0)


def _sandwich(x):
    """The closed forms log x - log log x and log x - (1/2) log log x."""
    lx = np.log(np.asarray(x, dtype=float))
    return lx - np.log(lx), lx - 0.5 * np.log(lx)


def test_bounds_at_e_and_large():
    lower, upper = _sandwich(math.e)
    assert lower == pytest.approx(1.0, abs=1e-14)
    assert upper == pytest.approx(1.0, abs=1e-14)
    assert abs(lambert_w0(math.e) - lower) < 1e-13
    assert abs(upper - lambert_w0(math.e)) < 1e-13

    lower, upper = _sandwich(1e6)
    # oracle value sits inside the sandwich
    w6 = w_bisect(1e6, hi=20.0)
    assert abs(w6 - 11.383358086140053) < 1e-11
    assert lower < w6 < upper
    assert lower < lambert_w0(1e6) < upper


def test_bounds_at_e_to_the_e():
    x = math.exp(math.e)
    w = w_bisect(x)
    assert abs(w - 2.016779764892201) < 1e-12  # frozen oracle value
    assert math.e - 1.0 <= w <= math.e - 0.5
    lower, upper = _sandwich(x)
    assert lower <= lambert_w0(x) <= upper


def test_bounds_strict_inside():
    xs = np.logspace(np.log10(np.e), 8, 1000)
    w = lambert_w0(xs)
    lower, upper = _sandwich(xs)
    assert np.all(w[1:] - lower[1:] > 0)
    assert np.all(upper[1:] - w[1:] > 0)


def test_domain_errors():
    with pytest.raises(DomainError):
        lambert_w0(-1.0)
    with pytest.raises(DomainError):
        lambert_w0(float("nan"))
    with pytest.raises(DomainError):
        lambert_w0(float("inf"))


def test_convergence_error_carries_residual(monkeypatch):
    # a W off by 1e-12 relative misses the 1e-13 residual certificate
    exact = lambert._halley
    monkeypatch.setattr(lambert, "_halley", lambda x: exact(x) * (1.0 + 1e-12))
    xs = np.array([0.5, 10.0])
    with pytest.raises(ConvergenceError) as exc:
        lambert_w0(xs)
    w = exact(xs) * (1.0 + 1e-12)
    worst = np.max(np.abs(w * np.exp(w) - xs) / np.maximum(1.0, xs))
    assert exc.value.residual == worst > 1e-13


def test_matches_scipy_within_two_ulp():
    # scipy's lambertw is kept as an independent oracle: the package's own
    # Halley iteration lands within 2 ulp of it over the whole float range
    rng = np.random.default_rng(11)
    xs = np.concatenate([np.logspace(-300, 300, 60001), 10.0 ** rng.uniform(-300, 300, 20000),
                         rng.uniform(0.0, 20.0, 20000), [1.0, 1.5, math.e]])
    w, ref = lambert_w0(xs), scipy.special.lambertw(xs).real
    assert np.max(np.abs(w - ref) / np.spacing(ref)) <= 2.0
    assert lambert_w0(0.0) == 0.0 == scipy.special.lambertw(0.0).real
    # any shape, value by value
    assert np.array_equal(lambert_w0(xs[:120].reshape(2, 3, 20)), w[:120].reshape(2, 3, 20))


@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_identity_property(x):
    w = lambert_w0(x)
    assert w >= 0.0
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)
