"""Weight sequences and the associated function, checked against brute-force
enumeration oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambertwave import (
    ConvergenceError,
    DomainError,
    SequenceParams,
    assoc_t_asym,
    assoc_t_exact,
    comparison_envelopes,
    log_m,
    moritoh_l,
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


def test_assoc_scan_cap_raises():
    # at sigma = 1.05 the sup for k = 1e12 lies past the scan's p cap
    val, argp = enum_oracle(1e12, 1.0, 1.05, p_max=800000)
    assert argp == 389626 and val == pytest.approx(1218956.89, rel=1e-8)
    with pytest.raises(ConvergenceError, match="cap"):
        assoc_t_exact(1e12, SequenceParams(1.0, 1.05))


def _walk(k, params):
    """The associated-function scan one p at a time: stop after three drops
    past the running maximum, raise past the p cap.  The reference for the
    search of ``assoc_t_exact``."""
    lk = math.log(k)
    best, best_p = 0.0, 0
    prev = 0.0
    drops = 0
    p = 1
    while drops < 3:
        if p > gevrey._P_CAP:
            raise ConvergenceError("cap")
        term = p * lk - float(log_m(p, params))
        if term > best:
            best, best_p = term, p
            drops = 0
        elif term < prev:
            drops += 1
        prev = term
        p += 1
    return best, best_p


def _scan_or_cap(scan, k, params):
    try:
        return scan(k, params)
    except ConvergenceError:
        return "cap"


@pytest.mark.parametrize("cap", [None, 1000, 4000])
def test_search_equals_walk(monkeypatch, cap):
    # equal t_exact and argmax_p, bit for bit, on a sigma / tau / k grid;
    # with the p cap lowered, the search and the walk raise at the same k
    if cap is not None:
        monkeypatch.setattr(gevrey, "_P_CAP", cap)
    seen = set()
    for sigma in (1.05, 1.3, 1.5, 2.0, 3.0) if cap else (1.3, 1.5, 2.0, 3.0):
        for tau in (0.25, 1.0, 4.0):
            params = SequenceParams(tau, sigma)
            for k in np.logspace(-1, 14, 11):
                rep = _scan_or_cap(assoc_t_exact, float(k), params)
                got = rep if rep == "cap" else (rep.t_exact, rep.argmax_p)
                assert got == _scan_or_cap(_walk, float(k), params), (sigma, tau, k)
                seen.add(got == "cap")
    assert seen == ({False} if cap is None else {False, True})


@pytest.mark.parametrize("sigma, tau, k, argmax", [
    (1.5, 1.0, 1e12, 23), (1.3, 0.25, 1e10, 1420), (2.0, 1.0, 1e14, 7),
])
def test_search_cap_boundary(monkeypatch, sigma, tau, k, argmax):
    # the walk needs three falls past the argmax: an argmax at cap - 3
    # returns, one at cap - 2 raises, for the search as for the walk
    params = SequenceParams(tau, sigma)
    monkeypatch.setattr(gevrey, "_P_CAP", argmax + 3)
    rep = assoc_t_exact(k, params)
    assert (rep.t_exact, rep.argmax_p) == _walk(k, params)
    assert rep.argmax_p == argmax
    monkeypatch.setattr(gevrey, "_P_CAP", argmax + 2)
    with pytest.raises(ConvergenceError, match="cap"):
        assoc_t_exact(k, params)
    with pytest.raises(ConvergenceError):
        _walk(k, params)


def test_assoc_domain_error():
    with pytest.raises(DomainError):
        assoc_t_exact(0.0, SequenceParams(1.0, 2.0))
    with pytest.raises(DomainError):
        assoc_t_asym(1.0, 2.0)
    with pytest.raises(DomainError):
        assoc_t_asym(100.0, 1.0)


def test_asym_closed_forms():
    x = math.exp(math.e)  # log k = e, W(e) = 1
    assert assoc_t_asym(x, 2.0) == pytest.approx(math.e ** 2, rel=1e-12)
    assert assoc_t_asym(x, 3.0) == pytest.approx(math.e ** 1.5, rel=1e-12)


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
    assert assoc_t_asym(1e12, 2.0) == pytest.approx(expected, rel=1e-11)


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
            lhs = assoc_t_asym(ks, sigma)
            rhs = assoc_t_asym(ks + a, sigma)
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


def test_moritoh_and_envelopes():
    # the comparator is log^sigma, defined for x > 1
    assert moritoh_l(math.exp(2.0), 2.0) == pytest.approx(4.0, rel=1e-12)
    assert moritoh_l(np.array([math.e]), 3.0)[0] == pytest.approx(1.0, rel=1e-15)
    for x in (1.0, 0.5):
        with pytest.raises(DomainError):
            moritoh_l(x, 2.0)
    env = comparison_envelopes(np.array([math.exp(math.e)]), 2.0)
    assert sorted(env) == ["exp", "gevrey2", "gevrey3", "moritoh"]
    assert env["gevrey2"][0] == pytest.approx(math.exp(math.e / 2.0), rel=1e-12)


def test_moritoh_saturates_past_double_precision():
    # log(3e4)^310 is past the largest double: the comparator saturates to
    # inf, with no overflow warning, and x / l -> 0 reads exp(-0) = 1
    x = np.array([1e2, 3e4])
    assert moritoh_l(x, 310.0)[1] == math.inf
    env = comparison_envelopes(x, 310.0)
    assert env["moritoh"][1] == 0.0
    assert np.exp(-env["moritoh"][1]) == 1.0
    assert math.isfinite(moritoh_l(1e2, 310.0))


def test_regressor_domain_names_its_cause():
    # W(log x) <= 0 for x <= 1: once reported as an overflow, or as W's domain
    for x in (1.0, 0.5, 1e-300, float("nan")):
        with pytest.raises(DomainError, match="x > 1"):
            gevrey.lambert_regressor(np.array([x, 1e2]), 2.0)
    with pytest.raises(DomainError, match="overflows"):
        gevrey.lambert_regressor(np.array([1e2]), 1.000001)
