"""Weight sequences and the associated function, checked against brute-force
enumeration oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambertwave import (
    DomainError,
    SequenceParams,
    assoc_t_exact,
    lambert_regressor,
    log_m,
)
from lambertwave import gevrey


def enum_oracle(k, tau, sigma, p_max=4000):
    """Full enumeration of sup_p (p log k - log M_p)."""
    ps = np.arange(p_max + 1, dtype=float)
    terms = ps * math.log(k) - np.where(
        ps >= 2, tau * ps ** sigma * np.log(np.maximum(ps, 2.0)), 0.0
    )
    i = int(np.argmax(terms))
    return max(0.0, float(terms[i])), i


def test_log_m_values():
    p = SequenceParams(1.0, 2.0)
    assert log_m(0, p) == 0.0
    assert log_m(1, p) == 0.0
    assert log_m(2, p) == pytest.approx(4.0 * math.log(2.0), rel=1e-15)
    # vectorized path
    out = log_m(np.array([0, 1, 2, 3]), p)
    assert out[3] == pytest.approx(9.0 * math.log(3.0), rel=1e-15)


def test_params_validation():
    with pytest.raises(DomainError):
        SequenceParams(-1.0, 2.0)
    with pytest.raises(DomainError):
        SequenceParams(1.0, 1.0)
    with pytest.raises(DomainError):
        SequenceParams(1.0, 1.0 + 1e-13)
    SequenceParams(1.0, 1.0 + 1e-12)
    # log M_2 = tau 2^sigma log 2 must be a finite double
    for tau, sigma in ((1.0, 1100.0), (1.0, 1e308), (1e308, 2.0), (1.1, 1023.9)):
        with pytest.raises(DomainError):
            SequenceParams(tau, sigma)
    SequenceParams(1.0, 1023.9)


def test_entries_past_double_precision_saturate():
    # log M_3 = 1e-300 3^1000 log 3 is past double precision, log M_2 is
    # not: the sup stops at p = 2 with no overflow warning
    params = SequenceParams(1e-300, 1000.0)
    assert log_m(3.0, params) == math.inf
    rep = assoc_t_exact(1e12, params)
    assert rep.argmax_p == 2
    assert rep.t_exact == 2.0 * math.log(1e12) - log_m(2.0, params)


def test_log_sequence_convexity():
    # assoc_t_exact's bracketed search rests on 2 log M_p <= log M_{p-1} +
    # log M_{p+1}: the term p log k - log M_p is then concave in p
    for sigma in (1.2, 1.5, 2.0, 3.0):
        v = log_m(np.arange(61), SequenceParams(1.0, sigma))
        assert v[0] == 0.0
        assert np.all(2 * v[1:-1] <= v[:-2] + v[2:] + 1e-9), sigma


@pytest.mark.parametrize("tau, sigma", [(1.0, 2.0), (1.0, 1.5), (0.5, 3.0)])
def test_log_sequence_ratio_decay(tau, sigma):
    # log(M_{p-1}/M_p) <= -tau (p-1)^(sigma-1) log(2p) for p >= 1
    params = SequenceParams(tau, sigma)
    p = np.arange(1, 51)
    lhs = log_m(p - 1, params) - log_m(p, params)
    rhs = -tau * (p - 1.0) ** (sigma - 1.0) * np.log(2.0 * p)
    assert np.all(lhs <= rhs + 1e-9 * np.maximum(1.0, np.abs(rhs)))
    if (tau, sigma) == (1.0, 2.0):
        # p = 2: log(M_1/M_2) = -4 log 2 <= -log 4
        assert lhs[1] == pytest.approx(-4.0 * math.log(2.0))


def test_assoc_exact_anchor_cases():
    params = SequenceParams(1.0, 2.0)
    rep = assoc_t_exact(1.0, params)
    assert rep.t_exact == 0.0
    assert rep.argmax_p == 0

    rep = assoc_t_exact(4.0, params)
    assert rep.t_exact == pytest.approx(math.log(4.0), rel=1e-14)
    assert rep.argmax_p == 1  # p = 2 ties at zero margin below, p = 3 negative

    rep = assoc_t_exact(1e6, params)
    oracle_val, oracle_p = enum_oracle(1e6, 1.0, 2.0, p_max=200)
    assert rep.t_exact == pytest.approx(oracle_val, rel=1e-14)
    assert rep.argmax_p == oracle_p == 4
    assert rep.t_exact == pytest.approx(33.08133245393884, rel=1e-13)  # frozen


def test_assoc_deep_argmax_equals_enumeration():
    # at sigma = 1.05 the sup for k = 1e12 lies deep, at p = 389626
    val, argp = enum_oracle(1e12, 1.0, 1.05, p_max=800000)
    assert argp == 389626 and val == pytest.approx(1218956.887, rel=1e-9)
    rep = assoc_t_exact(1e12, SequenceParams(1.0, 1.05))
    assert rep.argmax_p == argp
    assert rep.t_exact == pytest.approx(val, rel=1e-14)


@pytest.mark.parametrize("sigma", [1.01, 1.001, 1.0 + 1e-12])
def test_argmax_near_sigma_1_is_exact(sigma):
    # the argmax reaches 4e11, where a step term(p + 1) - term(p) lies 11
    # digits or more below the terms: in 40-digit arithmetic the reported p
    # beats both its neighbours, and t_exact is its term to rounding
    params = SequenceParams(1.0, sigma)
    with mpmath.workdps(40):
        for k in (1e6, 1e9, 1e12):
            rep = assoc_t_exact(k, params)
            term = [p * mpmath.log(k) - mpmath.mpf(p) ** sigma * mpmath.log(p)
                    for p in (rep.argmax_p - 1, rep.argmax_p, rep.argmax_p + 1)]
            assert term[1] > max(term[0], term[2]), (k, rep.argmax_p)
            assert abs(rep.t_exact / term[1] - 1) < 1e-14, k


def test_argmax_past_exact_integers_raises():
    # at tau = 1e-30 the sup for k = 1e12 sits near p = 1e29, where p and
    # p + 1 are no longer distinct doubles
    with pytest.raises(DomainError, match=r"k = 1e\+12, tau = 1e-30, sigma = 2 .* 2\^53 - 1"):
        assoc_t_exact(1e12, SequenceParams(1e-30, 2.0))


def test_t_asym_nan_past_double_precision():
    # at sigma = 1.001 the exponent 1/(sigma - 1) = 1000 takes T_sigma(k)
    # past double precision: the sup stands, t_asym and ratio are nan
    rep = assoc_t_exact(1e6, SequenceParams(1.0, 1.001))
    assert rep.t_exact > 0 and math.isfinite(rep.t_exact)
    assert math.isnan(rep.t_asym) and math.isnan(rep.ratio)
    with pytest.raises(DomainError, match="overflows"):
        lambert_regressor(1e6, 1.001)


def test_first_index_contract():
    # the first p in [0, cap] with pred(p), for a pred false below some
    # index and true from it on, in O(log cap) calls; None if pred(cap) is
    # false
    for cap in (1, 2, 7, 1000, gevrey._P_MAX):
        for first in {0, 1, cap // 2, cap - 1, cap}:
            calls = []

            def pred(p):
                calls.append(p)
                return p >= first

            assert gevrey.first_index(pred, cap) == first
            assert len(calls) <= 2 * cap.bit_length() + 2
        assert gevrey.first_index(lambda p: p > cap, cap) is None


def _walk(k, params, cap=None):
    """The associated-function scan one p at a time: stop after three drops
    past the running maximum, "cap" past p = cap, the walk's own limit.  The
    reference for the search of ``assoc_t_exact``."""
    lk = math.log(k)
    best, best_p = 0.0, 0
    prev = 0.0
    drops = 0
    p = 1
    while drops < 3:
        if cap is not None and p > cap:
            return "cap"
        term = p * lk - float(log_m(p, params))
        if term > best:
            best, best_p = term, p
            drops = 0
        elif term < prev:
            drops += 1
        prev = term
        p += 1
    return best, best_p


@pytest.mark.parametrize("cap", [None, 1000, 4000])
def test_search_equals_walk(cap):
    # equal t_exact and argmax_p, bit for bit, on a sigma / tau / k grid;
    # where the walk stops at its p cap, the search goes on past it
    seen = set()
    for sigma in (1.05, 1.3, 1.5, 2.0, 3.0) if cap else (1.3, 1.5, 2.0, 3.0):
        for tau in (0.25, 1.0, 4.0):
            params = SequenceParams(tau, sigma)
            for k in np.logspace(-1, 14, 11):
                rep = assoc_t_exact(float(k), params)
                walk = _walk(float(k), params, cap)
                if walk == "cap":
                    assert rep.argmax_p > cap - 3, (sigma, tau, k)
                else:
                    assert (rep.t_exact, rep.argmax_p) == walk, (sigma, tau, k)
                seen.add(walk == "cap")
    assert seen == ({False} if cap is None else {False, True})


@pytest.mark.parametrize("sigma, tau, k, argmax", [
    (1.5, 1.0, 1e12, 23), (1.3, 0.25, 1e10, 1420), (2.0, 1.0, 1e14, 7),
])
def test_search_cap_boundary(sigma, tau, k, argmax):
    # the walk needs three falls past the argmax: with its cap at argmax + 3
    # it returns the search's sup, at argmax + 2 it stops short
    params = SequenceParams(tau, sigma)
    rep = assoc_t_exact(k, params)
    assert rep.argmax_p == argmax
    assert (rep.t_exact, rep.argmax_p) == _walk(k, params, argmax + 3)
    assert _walk(k, params, argmax + 2) == "cap"


def test_assoc_domain_error():
    with pytest.raises(DomainError):
        assoc_t_exact(0.0, SequenceParams(1.0, 2.0))
    with pytest.raises(DomainError, match="sigma > 1"):
        lambert_regressor(100.0, 1.0)


def test_asym_closed_forms():
    x = math.exp(math.e)  # log k = e, W(e) = 1
    assert lambert_regressor(x, 2.0) == pytest.approx(math.e ** 2, rel=1e-12)
    assert lambert_regressor(x, 3.0) == pytest.approx(math.e ** 1.5, rel=1e-12)


def test_asym_fixture_1e12():
    # frozen: log^2(1e12) / W(log 1e12) with the bisection oracle for W
    def w_bisect(x):
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid * math.exp(mid) < x:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    lk = math.log(1e12)
    expected = lk ** 2 / w_bisect(lk)
    assert expected == pytest.approx(314.09059824617987, rel=1e-12)
    assert lambert_regressor(1e12, 2.0) == pytest.approx(expected, rel=1e-11)


def test_tau_scaling():
    # sigma = 2: t_exact scales like tau^{-1} up to the sigma-dependent bound
    # constants, once k is deep enough that the sup has left p = 1
    k = 1e150
    t1 = assoc_t_exact(k, SequenceParams(1.0, 2.0)).t_exact
    t16 = assoc_t_exact(k, SequenceParams(16.0, 2.0)).t_exact
    assert 1.0 / (3.0 * 16.0) <= t16 / t1 <= 3.0 / 16.0
    # and the ratio approaches 1/16 from above as k grows
    r30 = (
        assoc_t_exact(1e30, SequenceParams(16.0, 2.0)).t_exact
        / assoc_t_exact(1e30, SequenceParams(1.0, 2.0)).t_exact
    )
    assert t16 / t1 < r30


def test_monotone_in_k():
    params = SequenceParams(1.0, 2.0)
    ks = np.logspace(0.5, 13, 80)
    ts = [assoc_t_exact(float(k), params).t_exact for k in ks]
    assert np.all(np.diff(ts) >= 0)


def test_shift_domination():
    # T_sigma self-increasing for k >= 10: T(k) <= (1 + 1e-9) T(k + a)
    for sigma in (2.0, 3.0):
        ks = np.linspace(10.0, 1e4, 200)
        for a in (0.5, 3.0, 10.0):
            lhs = lambert_regressor(ks, sigma)
            rhs = lambert_regressor(ks + a, sigma)
            assert np.all(lhs <= (1.0 + 1e-9) * rhs)


def test_sandwich_on_fresh_grid():
    # the band of t_exact / (tau^(-1/(sigma-1)) t_asym) over one log grid
    # holds the exact values on a second, interleaved grid
    params = SequenceParams(1.0, 2.0)
    ratios = [assoc_t_exact(float(k), params).ratio for k in np.logspace(3, 12, 40)]
    r_min, r_max = min(ratios), max(ratios)
    assert 0.0 < r_min and r_max / r_min <= 10.0
    fresh = np.logspace(3.2, 11.7, 25)
    scale = params.tau ** (-1.0 / (params.sigma - 1.0))
    for k in fresh:
        rep = assoc_t_exact(float(k), params)
        lo = r_min * scale * rep.t_asym
        hi = r_max * scale * rep.t_asym
        assert lo * (1 - 1e-9) <= rep.t_exact <= hi * (1 + 1e-9)


@given(
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=1.5, max_value=3.0),
    st.floats(min_value=0.5, max_value=10.0),
)
@settings(max_examples=100, deadline=None)
def test_terminating_sup_equals_enumeration(tau, sigma, log10k):
    k = 10.0 ** log10k
    params = SequenceParams(tau, sigma)
    rep = assoc_t_exact(k, params)
    p_max = 10 * rep.argmax_p + 50
    val, argp = enum_oracle(k, tau, sigma, p_max=p_max)
    assert rep.t_exact == pytest.approx(val, rel=1e-13, abs=1e-13)
    assert rep.argmax_p == argp


def test_regressor_domain_names_its_cause():
    # W(log x) <= 0 for x <= 1: once reported as an overflow, or as W's domain
    for x in (1.0, 0.5, 1e-300, float("nan")):
        with pytest.raises(DomainError, match="x > 1"):
            gevrey.lambert_regressor(np.array([x, 1e2]), 2.0)
    with pytest.raises(DomainError, match="overflows"):
        gevrey.lambert_regressor(np.array([1e2]), 1.000001)
