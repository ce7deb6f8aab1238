"""Cutoff cascade: thresholds, scales, construction certificates, and
derivative bounds."""

import dataclasses
import math

import numpy as np
import pytest

from lambertwave import mollifier
from lambertwave import (
    BellEvaluator,
    DomainError,
    GridSpec,
    InputError,
    build_mollifier,
    cascade_scales,
    derivative_bound_audit,
)

SPEC_13 = GridSpec.symmetric(1.5, 13)
FREQ_13 = np.fft.rfftfreq(SPEC_13.n - 1, SPEC_13.dx)


def explicit_spectrum(scales, f):
    """prod_p sinc^2(a_p w / 2) at w = 2 pi f, one factor at a time."""
    out = np.ones(len(f))
    for a in scales:
        out *= np.sinc(a * f) ** 2
    return out


def all_scales(sigma):
    """Every block-formula scale down to the 1e-30 floor: none discarded."""
    seq = cascade_scales(sigma, 1e-300)
    assert seq.discarded_tail_mass == 0.0
    return seq.scales


def on_grid(spectrum, spec=SPEC_13):
    """Samples on ``spec`` of the function with this transform on the rfft
    bins of its period: one inverse rfft, x = 0 rolled to its grid index."""
    period = spec.n - 1
    phi = np.fft.irfft(spectrum, period) / spec.dx
    return np.resize(np.roll(phi, round(-spec.x0 / spec.dx)), spec.n)


def product_phi(scales):
    """The cascade of ``scales`` alone on SPEC_13, from its exact product."""
    return on_grid(mollifier.cascade_spectrum(scales, FREQ_13))


def tail_oracle(sigma, m, start):
    """Direct summation oracle for the block tails."""
    s, p = 0.0, start
    while True:
        t = (2.0 * (p + 1)) ** (-(1.0 / m) * p ** (sigma - 1.0))
        s += t
        if t < 1e-30:
            return s
        p += 1


def test_block_thresholds_fixture_and_oracle():
    frozen = {  # frozen against the oracle below
        1.5: [1, 5, 12, 25, 44, 71, 107, 154],
        2.0: [1, 2, 4, 6, 8, 10, 13, 15],
        3.0: [1, 2, 2, 3, 3, 4, 4, 5],
    }
    for sigma, expected in frozen.items():
        nm = cascade_scales(sigma, 1e-3).thresholds
        assert nm == expected
        for m, N in enumerate(nm, start=1):
            assert tail_oracle(sigma, m, N) < 2.0 ** (-m)
            if N > 1:
                assert tail_oracle(sigma, m, N - 1) >= 2.0 ** (-m)
        assert all(b >= a for a, b in zip(nm, nm[1:]))


def test_block_thresholds_errors():
    for sigma in (1.0, 1100.0):  # 2^(sigma - 1) at p = 2 was an OverflowError
        with pytest.raises(DomainError):
            cascade_scales(sigma, 1e-3)
    for cutoff in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(InputError):
            cascade_scales(2.0, cutoff)


@pytest.mark.parametrize("sigma", [1.2, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("m", [1, 8])
def test_last_index_is_first_term_below_floor(sigma, m):
    p = mollifier._last_index(sigma, m)
    assert mollifier._block_terms(sigma, m, p - 1) >= 1e-30 > mollifier._block_terms(sigma, m, p)


def test_scale_sequence_values_and_mass():
    seq = cascade_scales(2.0, 1e-5)
    nm = seq.thresholds
    assert nm[0] == 1
    assert seq.scales[0] == 0.25  # a_1 = 4^{-1} in block m = 1
    assert seq.scales[1] == pytest.approx(1.0 / 6.0, rel=1e-15)
    # grand total: retained plus discarded tail stays within unit mass
    assert float(np.sum(seq.scales)) + seq.discarded_tail_mass <= 1.0
    # the retained indices p, by the block formula: the scales tick up at
    # each block start, so they need not be contiguous
    p = np.arange(nm[0], seq.p_end + 1, dtype=float)
    a = mollifier._block_terms(2.0, np.searchsorted(nm, p, side="right"), p)
    kept = p[(a >= 1e-5) | (p == nm[0])]
    assert len(kept) == len(seq.scales)
    # strictly decreasing beyond the last threshold (single-block regime)
    deep = seq.scales[kept >= nm[-1]]
    assert len(deep) > 1
    assert np.all(np.diff(deep) < 0)
    # the fold's sums run over every discarded scale down to the floor
    p = np.arange(nm[0], mollifier._last_index(2.0, 8) + 1, dtype=float)
    a = mollifier._block_terms(2.0, np.searchsorted(nm, p, side="right"), p)
    tail = a[(a < 1e-5) & (p != nm[0])]
    assert seq.discarded_tail_mass == pytest.approx(np.sum(tail), rel=1e-13)
    assert seq.discarded_a2 == pytest.approx(np.sum(tail ** 2), rel=1e-13)
    assert seq.discarded_a4 == pytest.approx(np.sum(tail ** 4), rel=1e-13)


def test_truncation_keeps_every_scale_above_the_cutoff():
    # the scales tick up at each block start: at sigma = 1.2 a truncation at
    # the first a_p below one cell of the 2^17 grid would stop inside block
    # 2 and discard blocks 3-8, whose first factors are far wider
    sigma = 1.2
    cutoff = GridSpec.symmetric(1.5, 17).dx
    seq = cascade_scales(sigma, cutoff)
    nm = seq.thresholds
    # direct oracle over p = N_1 .. the first block-8 scale below the cutoff
    # (past it the scales fall strictly)
    kept, p = [], nm[0]
    while True:
        a = (2.0 * (p + 1)) ** (-(1.0 / sum(N <= p for N in nm)) * p ** (sigma - 1.0))
        if a >= cutoff:
            kept.append(a)
        elif p >= nm[-1]:
            break
        p += 1
    assert len(seq.scales) == len(kept) == 2036
    assert np.all(seq.scales >= cutoff)
    assert seq.scales == pytest.approx(kept, rel=1e-13)
    assert seq.discarded_tail_mass == pytest.approx(0.0885, abs=1e-4)
    assert float(np.sum(seq.scales)) + seq.discarded_tail_mass <= 1.0


@pytest.mark.parametrize("sigma", [1.5, 2.0])
def test_each_block_term_computed_once(monkeypatch, sigma):
    # one walk per block: no (m, p) term of the build is formed twice
    seen, terms = [], mollifier._block_terms

    def recorded(sig, m, p):
        if np.ndim(p):  # the scalar calls are _last_index's bisection
            seen.extend(zip(np.broadcast_to(m, np.shape(p)).tolist(), np.ravel(p).tolist()))
        return terms(sig, m, p)

    monkeypatch.setattr(mollifier, "_block_terms", recorded)
    build_mollifier(sigma, SPEC_13)
    assert len(seen) > 100
    assert len(set(seen)) == len(seen)


def _prefix_builds():
    """Samples of the nested partial cascades of the SPEC_13 build's scales,
    shortest first, from their exact product: at each distinct scale,
    widest first, every factor at least that wide (the last is the full
    retained cascade)."""
    sc = build_mollifier(2.0, SPEC_13).scales
    return [product_phi(sc[sc >= c]) for c in sorted(set(sc.tolist()), reverse=True)]


def test_build_certificates_small_grid():
    build = build_mollifier(2.0, SPEC_13)
    phi = build.phi
    assert abs(phi.integral() - 1.0) <= 1e-13
    assert np.all(phi.values >= 0.0)
    assert build.evenness <= 1e-10
    half = float(np.sum(build.scales))
    assert half <= 1.0
    x = phi.x()
    assert np.all(phi.values[np.abs(x) > half + 2 * phi.dx] == 0.0)
    # smoothing monotonicity: sup never increases along the cascade
    sups = [np.max(phi) for phi in _prefix_builds()]
    assert len(sups) >= 10
    assert np.all(np.diff(sups) <= 1e-12)


def test_single_factor_build_matches_scaled_bump():
    # the cone of half-width 1/4, 4 (1 - 4|x|)_+, from its transform sinc^2
    # on the period's rfft bins: the series left out past the Nyquist bin
    # K = P/2 is at most (2/L) sum_{k >= K} (pi a k / L)^-2 <= 2L / ((pi a)^2 (K - 1))
    phi = product_phi([0.25])
    target = 4.0 * np.maximum(0.0, 1.0 - 4.0 * np.abs(SPEC_13.points()))
    L, K = (SPEC_13.n - 1) * SPEC_13.dx, (SPEC_13.n - 1) // 2
    assert np.max(np.abs(phi - target)) <= 2.0 * L / ((np.pi * 0.25) ** 2 * (K - 1))
    assert abs(np.trapezoid(phi, dx=SPEC_13.dx) - 1.0) <= 1e-14


def test_base_bump_errors():
    # the unit cone, the base of every factor, must be resolved on the grid
    with pytest.raises(InputError, match="too coarse"):
        build_mollifier(2.0, GridSpec.symmetric(1.5, 5))  # 21 points across [-1, 1]
    with pytest.raises(InputError, match="cover"):
        build_mollifier(2.0, GridSpec(0.0, 0.01, 300))  # does not cover [-1, 1]


def test_build_preconditions():
    with pytest.raises(InputError):
        build_mollifier(2.0, GridSpec(-0.5, 0.001, 1001))
    with pytest.raises(DomainError):
        build_mollifier(1.0, SPEC_13)


def test_stage_gap_contraction_bound():
    """Extending the cascade by one factor moves the sup by at most
    ||phi'||_inf * a_next (mean-value smoothing contraction)."""
    # within block 8 the scales fall strictly, so these prefixes differ by one factor
    sc = build_mollifier(2.0, SPEC_13).scales
    s15, s16 = sc[sc >= 7.0e-4], sc[sc >= 4.0e-4]
    assert len(s16) == len(s15) + 1
    phi15, phi16 = product_phi(s15), product_phi(s16)
    diff = np.max(np.abs(phi16 - phi15))
    dphi = np.gradient(phi15, SPEC_13.dx)
    assert diff <= np.max(np.abs(dphi)) * s16[-1] * 1.01


def test_convergence_invariants_small():
    phis = _prefix_builds()
    gaps = np.array([np.max(np.abs(b - a)) for a, b in zip(phis, phis[1:])])
    # gaps shrink along the cascade (the prefixes skip the block-start ticks)
    assert np.all(gaps[1:] < gaps[:-1])


def test_derivative_audit_deep(deep_moll):
    rep = derivative_bound_audit(deep_moll, 8)
    assert len(rep.rows) == 9
    for row in rep.rows:
        assert row.measured <= row.bound * 1.001
    # n = 0 bound is the sup of the first factor, the cone of half-width
    # a_1 = 1/4: 1 / a_1 = 4
    assert rep.rows[0].bound == 4.0
    # growth-shape fit is a true envelope over the audited range
    sig = deep_moll.sigma
    for row in rep.rows[2:]:
        n = row.n
        rhs = rep.log_c_fit * n ** sig + rep.tau_eff * n ** sig * math.log(n)
        assert math.log(row.measured) <= rhs + 1e-9


def test_derivative_audit_just_above_sigma_1_5():
    # stagewise roundoff in the near-zero modes of the sampled build once set
    # the n = 8 sup here (7.63e15 against the bound 7.85e14 at sigma = 1.5012):
    # the whole scan 1.5000-1.5050 in steps of 1e-4
    spec = GridSpec.symmetric(1.5, 17)
    for k in range(51):
        sigma = round(1.5 + k * 1e-4, 4)
        rep = derivative_bound_audit(build_mollifier(sigma, spec), 8)
        assert max(r.ratio for r in rep.rows) < 1.0, sigma


@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
def test_cascade_matches_per_factor_spectral_product(sigma):
    # the product over every scale down to the floor, one factor at a time,
    # against the build's exact factors for the scales of a cell or more
    # and the fold for the rest
    phi = build_mollifier(sigma, SPEC_13).phi.values
    ref = on_grid(explicit_spectrum(all_scales(sigma), FREQ_13))
    assert np.max(np.abs(phi - ref)) <= 1e-14 * np.max(ref)


@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
def test_dropping_the_fold_misses_the_all_scale_product(sigma):
    # negative control: the retained factors alone miss the full cascade
    kept = build_mollifier(sigma, SPEC_13).scales
    ref = on_grid(explicit_spectrum(all_scales(sigma), FREQ_13))
    assert np.max(np.abs(product_phi(kept) - ref)) > 1e-10 * np.max(ref)


def test_cutoff_matches_its_cosine_series(deep_moll):
    # the infinite cascade lives on [-S, S], S = sum a_p, so there it is its
    # cosine series (1/2S)(1 + 2 sum c_n cos(pi n x / S)), with
    # c_n = phi_hat(pi n / S): no FFT
    sc = all_scales(2.0)
    S = float(np.sum(sc))
    n = np.arange(1, 400)
    c = explicit_spectrum(sc, n / (2.0 * S))
    assert c[-1] < 1e-30
    phi = deep_moll.phi
    idx = np.searchsorted(phi.x(), [-0.23, 0.0, 0.1, 0.37, 0.5, 0.55])
    x = phi.x()[idx]
    series = (1.0 + 2.0 * np.cos(np.pi * np.outer(x, n) / S) @ c) / (2.0 * S)
    assert np.max(np.abs(series - phi.values[idx])) <= 1e-14 * phi.sup()


def test_derivative_audit_preconditions():
    build = build_mollifier(2.0, SPEC_13)
    small = dataclasses.replace(build, scales=build.scales[:4])
    # 4 factors retained: n_max = 3 exceeds the factors-after-first budget
    with pytest.raises(InputError):
        derivative_bound_audit(small, 3)
    with pytest.raises(InputError):
        derivative_bound_audit(small, 13)


def test_dilate_identity_and_scaling():
    # the bell's ramps are the running integrals of the cone cascade's first
    # factor, a_1 = 1/4, dilated by a and by 2a to mass pi/2: trapezoid sums
    # of the dilated samples meet the closed forms to the sampling error
    phi = product_phi([0.25])
    a = math.pi / 6.0
    ph = BellEvaluator(a)
    for width, theta in ((a, ph.theta_a), (2.0 * a, ph.theta_2a)):
        x = SPEC_13.points() * width
        dens = phi * (math.pi / 2.0 / width)
        run = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(x))])
        assert np.max(np.abs(run - theta(x))) <= 1e-6


def test_dilate_domain_errors():
    # the dilation width must be a finite positive number
    for a in (-0.5, 0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            BellEvaluator(a)
