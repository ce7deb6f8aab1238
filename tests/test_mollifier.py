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
    ResolutionError,
    block_thresholds,
    build_mollifier,
    derivative_bound_audit,
    scale_sequence,
)

SPEC_13 = GridSpec.symmetric(1.5, 13)


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
        nm = block_thresholds(sigma, 8)
        assert nm == expected
        for m, N in enumerate(nm, start=1):
            assert tail_oracle(sigma, m, N) < 2.0 ** (-m)
            if N > 1:
                assert tail_oracle(sigma, m, N - 1) >= 2.0 ** (-m)
        assert all(b >= a for a, b in zip(nm, nm[1:]))


def test_block_thresholds_errors():
    with pytest.raises(DomainError):
        block_thresholds(1.0, 4)
    with pytest.raises(InputError):
        block_thresholds(2.0, 0)


@pytest.mark.parametrize("sigma", [1.2, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("m", [1, 8])
def test_last_index_is_first_term_below_floor(sigma, m):
    p = mollifier._last_index(sigma, m)
    assert mollifier._block_terms(sigma, m, p - 1) >= 1e-30 > mollifier._block_terms(sigma, m, p)


def test_scale_sequence_values_and_mass():
    nm = block_thresholds(2.0, 8)
    seq = scale_sequence(2.0, nm, 1e-5)
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
    assert not seq.degenerate


def test_scale_sequence_degenerate():
    nm = block_thresholds(2.0, 8)
    seq = scale_sequence(2.0, nm, 0.3)  # above a_1 = 0.25
    assert seq.degenerate
    assert len(seq.scales) == 1
    assert seq.p_end == 1


def test_truncation_keeps_every_scale_above_the_cutoff():
    # the scales tick up at each block start: at sigma = 1.2 a truncation at
    # the first a_p below one cell of the 2^17 grid would stop inside block
    # 2 and discard blocks 3-8, whose first factors are far wider
    sigma = 1.2
    nm = block_thresholds(sigma, 8)
    cutoff = GridSpec.symmetric(1.5, 17).dx
    seq = scale_sequence(sigma, nm, cutoff)
    # direct oracle over p = N_1 .. the first block-8 scale below the cutoff
    # (past it the scales fall strictly)
    kept, widest, p = [], 0.0, nm[0]
    while True:
        a = (2.0 * (p + 1)) ** (-(1.0 / sum(N <= p for N in nm)) * p ** (sigma - 1.0))
        if a >= cutoff:
            kept.append(a)
        else:
            widest = max(widest, a)
            if p >= nm[-1]:
                break
        p += 1
    assert len(seq.scales) == len(kept) == 2036
    assert np.all(seq.scales >= cutoff)
    assert seq.scales == pytest.approx(kept, rel=1e-13)
    assert widest < cutoff
    assert seq.next_scale == pytest.approx(widest, rel=1e-13)
    assert seq.discarded_tail_mass == pytest.approx(0.0885, abs=1e-4)
    assert float(np.sum(seq.scales)) + seq.discarded_tail_mass <= 1.0


def _prefix_builds():
    """The nested partial cascades on SPEC_13, shortest first: a cutoff at
    each distinct retained scale, widest first, keeps exactly the factors
    at least that wide (the last is the full cascade)."""
    sc = build_mollifier(2.0, SPEC_13).scales
    cutoffs = sorted(set(sc.tolist()), reverse=True)
    builds = [build_mollifier(2.0, SPEC_13, cutoff=c) for c in cutoffs]
    assert [len(b.scales) for b in builds] == [int(np.sum(sc >= c)) for c in cutoffs]
    return builds


def test_build_certificates_small_grid():
    build = build_mollifier(2.0, SPEC_13)
    phi = build.phi
    assert abs(phi.integral() - 1.0) <= 1e-8
    assert np.all(phi.values >= 0.0)
    assert build.evenness <= 1e-10
    half = float(np.sum(build.scales))
    assert half <= 1.0
    x = phi.x()
    assert np.all(phi.values[np.abs(x) > half + 2 * phi.dx] == 0.0)
    # smoothing monotonicity: sup never increases along the cascade
    sups = [b.phi.sup() for b in _prefix_builds()]
    assert len(sups) >= 10
    assert np.all(np.diff(sups) <= 1e-12)


def test_single_factor_build_matches_scaled_bump():
    build = build_mollifier(2.0, SPEC_13, cutoff=0.3)
    assert build.degenerate
    assert len(build.scales) == 1
    # phi is the unit cone dilated to half-width 0.25: 4 (1 - 4|x|)_+ at
    # unit trapezoid mass
    target = 4.0 * np.maximum(0.0, 1.0 - 4.0 * np.abs(SPEC_13.points()))
    target /= np.trapezoid(target, dx=SPEC_13.dx)
    assert np.max(np.abs(build.phi.values - target)) <= 1e-12


def test_base_bump_errors():
    # the unit cone, the base of every factor, must be resolved on the grid
    with pytest.raises(InputError, match="too coarse"):
        build_mollifier(2.0, GridSpec.symmetric(1.5, 5))  # 21 points across [-1, 1]
    with pytest.raises(InputError, match="cover"):
        build_mollifier(2.0, GridSpec(0.0, 0.01, 300))  # does not cover [-1, 1]


def test_build_preconditions():
    with pytest.raises(ResolutionError):
        build_mollifier(2.0, SPEC_13, cutoff=SPEC_13.dx / 8.0)
    with pytest.raises(InputError):
        build_mollifier(2.0, GridSpec(-0.5, 0.001, 1001))
    with pytest.raises(DomainError):
        build_mollifier(1.0, SPEC_13)


def test_stage_gap_contraction_bound():
    """Extending the cascade by one factor moves the sup by at most
    ||phi'||_inf * a_next (mean-value smoothing contraction)."""
    # within block 8 the scales fall strictly, so these cutoffs differ by one factor
    b15 = build_mollifier(2.0, SPEC_13, cutoff=7.0e-4)
    b16 = build_mollifier(2.0, SPEC_13, cutoff=4.0e-4)
    assert len(b16.scales) == len(b15.scales) + 1
    a_next = b16.scales[-1]
    diff = np.max(np.abs(b16.phi.values - b15.phi.values))
    dphi = np.gradient(b15.phi.values, b15.phi.dx)
    assert diff <= np.max(np.abs(dphi)) * a_next * 1.01


def test_convergence_invariants_small():
    builds = _prefix_builds()
    build = builds[-1]
    gaps = np.array([
        np.max(np.abs(b.phi.values - a.phi.values)) for a, b in zip(builds, builds[1:])
    ])
    # gaps shrink along the cascade (the prefixes skip the block-start ticks)
    assert np.all(gaps[1:] < gaps[:-1])
    # at the default cutoff the next factor is narrower than a grid cell:
    # numerically the identity
    assert build.final_gap <= 1e-10


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
    # stagewise roundoff in the near-zero modes once set the n = 8 sup here
    # (7.63e15 against the bound 7.85e14 at sigma = 1.5012)
    spec = GridSpec.symmetric(1.5, 17)
    for sigma in (1.5012, 1.5014, 1.5036):
        rep = derivative_bound_audit(build_mollifier(sigma, spec), 8)
        assert max(r.ratio for r in rep.rows) < 1.0


def test_wrapping_cascade_is_a_resolution_error(monkeypatch):
    # one-cell factors enough to span half the 8192-sample period: the
    # circular product would wrap, so the build must refuse
    real = scale_sequence

    def crowded(sigma, thresholds, cutoff):
        seq = real(sigma, thresholds, cutoff)
        extra = np.full(4096, SPEC_13.dx)
        return dataclasses.replace(seq, scales=np.concatenate([seq.scales, extra]))

    monkeypatch.setattr(mollifier, "scale_sequence", crowded)
    with pytest.raises(ResolutionError, match="wrap"):
        build_mollifier(2.0, SPEC_13)


def test_cascade_makes_few_period_transforms(monkeypatch):
    # at sigma = 1.5 the 202 factors are mostly a few cells wide: folded
    # into one running kernel, they need no period transform of their own
    calls = []
    real = mollifier._kernel_spectrum

    def counting(ker, K, period):
        calls.append(K)
        return real(ker, K, period)

    monkeypatch.setattr(mollifier, "_kernel_spectrum", counting)
    build = build_mollifier(1.5, GridSpec.symmetric(1.5, 17))
    assert len(build.scales) == 202
    assert len(calls) <= 60


def _per_factor_product(sigma, spec):
    """Reference cutoff: every factor's own period transform, one product,
    one inverse, then the clamp, the clearing and the renormalization."""
    seq = scale_sequence(sigma, block_thresholds(sigma, 8), spec.dx)
    period, dx = spec.n - 1, spec.dx
    spectrum = np.ones(period // 2 + 1, dtype=complex)
    for a in seq.scales:
        ker, K = mollifier._sampled_kernel(a, dx)
        spectrum *= np.fft.rfft(np.roll(np.pad(ker, (0, period - 2 * K - 1)), -K)) * dx
    phi = np.fft.irfft(spectrum / dx, period)
    phi = np.maximum(np.resize(np.roll(phi, period // 2), spec.n), 0.0)
    phi[np.abs(spec.points()) > np.sum(seq.scales) + dx] = 0.0
    return phi / np.trapezoid(phi, dx=dx)


@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
def test_cascade_matches_per_factor_spectral_product(sigma):
    phi = build_mollifier(sigma, SPEC_13).phi.values
    ref = _per_factor_product(sigma, SPEC_13)
    assert np.max(np.abs(phi - ref)) <= 1e-13 * np.max(ref)


def test_derivative_audit_preconditions():
    small = build_mollifier(2.0, SPEC_13, cutoff=0.04)
    # 4 factors retained: n_max = 3 exceeds the factors-after-first budget
    with pytest.raises(InputError):
        derivative_bound_audit(small, 3)
    with pytest.raises(InputError):
        derivative_bound_audit(small, 13)


def test_dilate_identity_and_scaling():
    # the bell's ramps are the running integrals of the cone cascade's first
    # factor, a_1 = 1/4, dilated by a and by 2a to mass pi/2: trapezoid sums
    # of the dilated samples meet the closed forms to the sampling error
    build = build_mollifier(2.0, SPEC_13, cutoff=0.2)
    assert build.scales.tolist() == [0.25]
    a = math.pi / 6.0
    ph = BellEvaluator(a)
    for width, theta in ((a, ph.theta_a), (2.0 * a, ph.theta_2a)):
        x = build.phi.x() * width
        dens = build.phi.values * (math.pi / 2.0 / width)
        run = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(x))])
        assert np.max(np.abs(run - theta(x))) <= 1e-6


def test_dilate_domain_errors():
    # the dilation width must be a finite positive number
    for a in (-0.5, 0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            BellEvaluator(a)
