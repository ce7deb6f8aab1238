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
    InputError,
    SequenceParams,
    assoc_t_asym,
    assoc_t_exact,
    comparison_envelopes,
    fit_assoc_bounds,
    log_m,
    moritoh_l,
    seq_property_audit,
)
from lambertwave import VerificationError
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
    # flagged comparison generator admits sigma = 1
    SequenceParams(1.0, 1.0, allow_gevrey=True)


def test_log_sequence_convexity():
    v = log_m(np.arange(61), SequenceParams(1.0, 2.0))
    assert v[0] == 0.0
    assert np.all(2 * v[1:-1] <= v[:-2] + v[2:] + 1e-9)


def test_audit_passes_and_ratio_example():
    params = SequenceParams(1.0, 2.0)
    rep = seq_property_audit(params, 50)
    assert rep.log_convex_ok and rep.ratio_bound_ok
    # p = 2: log(M_1/M_2) = -4 log 2 <= -log 4 = -2 log 2
    assert log_m(1, params) - log_m(2, params) == pytest.approx(-4.0 * math.log(2.0))
    assert rep.min_log_c >= 0.0
    assert np.isfinite(rep.min_log_c)
    assert not rep.quasianalytic


def test_audit_min_log_c_against_bruteforce():
    params = SequenceParams(1.0, 2.0)
    rep = seq_property_audit(params, 20)
    sig, tau = 2.0, 1.0
    doubled = SequenceParams(2.0 * tau, sig)
    worst = 0.0
    for p in range(21):
        for q in range(21):
            den = p ** sig + q ** sig
            if den == 0:
                continue
            need = (log_m(p + q, params) - log_m(p, doubled) - log_m(q, doubled)) / den
            worst = max(worst, need)
    assert rep.min_log_c == pytest.approx(worst, rel=1e-12, abs=1e-12)


def test_audit_quasianalytic_flag():
    rep = seq_property_audit(SequenceParams(1.0, 1.0, allow_gevrey=True), 30)
    assert rep.quasianalytic
    assert "quasianalytic" in rep.notes
    # Gevrey tau > 1 converges: no flag
    rep2 = seq_property_audit(SequenceParams(2.0, 1.0, allow_gevrey=True), 30)
    assert not rep2.quasianalytic


def test_audit_requires_pmax():
    with pytest.raises(InputError):
        seq_property_audit(SequenceParams(1.0, 2.0), 2)


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


def test_fit_assoc_bounds_band():
    ks = np.logspace(3, 12, 40)
    rep = fit_assoc_bounds(SequenceParams(1.0, 2.0), ks)
    assert rep.band <= 10.0
    assert rep.r_min > 0


def test_fit_assoc_bounds_input_errors():
    with pytest.raises(InputError):
        fit_assoc_bounds(SequenceParams(1.0, 2.0), np.logspace(3, 12, 10))
    with pytest.raises(InputError):
        fit_assoc_bounds(SequenceParams(1.0, 2.0), np.logspace(0, 12, 40))
    with pytest.raises(VerificationError):
        fit_assoc_bounds(SequenceParams(1.0, 2.0), np.logspace(3, 12, 40),
                         band_limit=1.0000001)


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
    params = SequenceParams(1.0, 2.0)
    fit = fit_assoc_bounds(params, np.logspace(3, 12, 40))
    fresh = np.logspace(3.2, 11.7, 25)
    scale = params.tau ** (-1.0 / (params.sigma - 1.0))
    for k in fresh:
        rep = assoc_t_exact(float(k), params)
        lo = fit.r_min * scale * rep.t_asym
        hi = fit.r_max * scale * rep.t_asym
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
    # n = 1 comparator is log^sigma; deeper iterates need larger x
    assert moritoh_l(math.exp(2.0), 1, 2.0) == pytest.approx(4.0, rel=1e-12)
    x = math.exp(math.exp(2.0))
    assert moritoh_l(x, 2, 3.0) == pytest.approx(math.exp(2.0) * 2.0 ** 3, rel=1e-12)
    with pytest.raises(DomainError):
        moritoh_l(1.5, 2, 2.0)
    env = comparison_envelopes(np.array([math.exp(math.e)]), 2.0)
    assert sorted(env) == ["exp", "gevrey2", "gevrey3", "moritoh"]
    assert env["gevrey2"][0] == pytest.approx(math.exp(math.e / 2.0), rel=1e-12)
