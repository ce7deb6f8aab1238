"""Certification operations: inner products, Gram, dyadic partition,
completeness, decay fits, and the mixed bound audit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambertwave import (
    BellEvaluator,
    GridFunction,
    InputError,
    VerificationError,
    completeness_check,
    decay_envelope,
    derivative_decay_check,
    dyadic_sum_check,
    envelope_window,
    fit_decay,
    gaussian_spectrum,
    gram_matrix,
    inner_product,
    intercept_growth_fit,
    mixed_bound_audit,
)
from lambertwave.gevrey import lambert_regressor

A = math.pi / 6.0


def test_self_inner_product(wavelet):
    val = inner_product(wavelet.ph, (0, 0), (0, 0))
    assert abs(val - 1.0) <= 1e-8
    assert abs(val.imag) <= 1e-12


def test_disjoint_scales_exactly_zero(wavelet):
    assert inner_product(wavelet.ph, (0, 2), (3, -5)) == 0.0


def test_translate_orthogonality(wavelet):
    assert abs(inner_product(wavelet.ph, (0, 0), (0, 1))) <= 1e-8


def test_inner_product_refinement_stability(wavelet):
    coarse = inner_product(wavelet.ph, (0, 3), (1, -2), n_quad=2 ** 14 + 1)
    fine = inner_product(wavelet.ph, (0, 3), (1, -2), n_quad=2 ** 15 + 1)
    assert abs(coarse - fine) <= 1e-9


def test_gram_small_window(wavelet):
    rep = gram_matrix(wavelet.ph, m_range=(-1, 1), n_range=(-3, 3))
    assert rep.max_diag_dev <= 1e-7
    assert rep.max_offdiag <= 1e-7
    seen = {(tuple(q[:2]), tuple(q[2:])): v
            for q, v in zip(rep.pairs.T.tolist(), rep.values)}
    # each unordered pair once, the members in (m, n) order
    n_members = 3 * 7
    assert len(seen) == rep.values.size == n_members * (n_members + 1) // 2
    assert all(i1 <= i2 for i1, i2 in seen)
    # every pair against the direct quadrature of its ordered pair
    for (i1, i2), v in seen.items():
        assert abs(v - inner_product(wavelet.ph, i1, i2)) <= 1e-9, (i1, i2)
    assert seen[((-1, 0), (1, 0))] == 0.0  # disjoint bands
    # gram.csv writes -0 in im for the same-scale pairs, conjugates of d >= 0
    m1, _, m2, _ = rep.pairs
    assert np.array_equal(np.signbit(rep.values.imag), m1 == m2)


def test_gram_tolerance_failure_names_pair(wavelet):
    # the error names the pair of the largest deviation from the identity:
    # here a diagonal pair, just above the largest off-diagonal value
    rep = gram_matrix(wavelet.ph, m_range=(-1, 1), n_range=(-3, 3))
    assert rep.max_diag_dev > rep.max_offdiag
    with pytest.raises(VerificationError) as exc:
        gram_matrix(wavelet.ph, m_range=(-1, 1), n_range=(-3, 3), tol=1e-16)
    i1, i2, dev = exc.value.detail
    assert dev == rep.max_diag_dev and i1 == i2
    k = rep.pairs.T.tolist().index([*i1, *i2])
    assert abs(rep.values[k] - 1.0) == dev


def test_dyadic_default_and_flat_region(wavelet):
    rep = dyadic_sum_check(wavelet.ph)
    assert rep.max_dev <= 1e-9
    # single-term flat region: the sum is exactly 1
    flat = np.linspace(math.pi + A, 2.0 * (math.pi - A), 257)
    rep2 = dyadic_sum_check(wavelet.ph, xi_grid=flat)
    assert np.all(rep2.s == 1.0)


def test_dyadic_rejects_zero(wavelet):
    with pytest.raises(InputError):
        dyadic_sum_check(wavelet.ph, xi_grid=np.array([0.0, 1.0]))


def test_completeness_on_psi_itself(wavelet):
    def fhat(xi):
        return wavelet.ph.psi_hat_at(xi)

    fhat.band = (0.0, 2.0 * (math.pi + A))
    rep = completeness_check(wavelet.ph, f_hat=fhat)
    assert abs(rep.ratio - 1.0) <= 1e-8


def test_completeness_on_member(wavelet):
    def fhat(xi):
        return wavelet.ph.psi_hat_at(xi, m=1, n=5)

    fhat.band = (0.0, 4.0 * (math.pi + A))
    rep = completeness_check(wavelet.ph, f_hat=fhat)
    assert abs(rep.ratio - 1.0) <= 1e-8


def test_completeness_gaussian(wavelet):
    rep = completeness_check(wavelet.ph, gaussian_spectrum())
    assert abs(rep.ratio - 1.0) <= 1e-3


def _completeness_per_n(ph, f_hat, n_cap=256):
    """Reference: each coefficient its own trapezoid integral of the
    integrand times e^{-+inu}, made afresh for every n and scale."""
    ug = np.linspace(-f_hat.band[1] - 1.0, f_hat.band[1] + 1.0, 2 ** 16 + 1)
    f_energy = np.trapezoid(np.abs(f_hat(ug)) ** 2, dx=ug[1] - ug[0]) / (2.0 * np.pi)
    u = np.linspace(np.pi - ph.a, 2.0 * (np.pi + ph.a), 2 ** 13 + 1)
    du = u[1] - u[0]
    total, n_used = 0.0, {}
    for m in range(-4, 5):
        gp = f_hat(2.0 ** m * u) * np.conj(ph.psi_hat_at(u))
        gn = f_hat(-(2.0 ** m) * u) * np.conj(ph.psi_hat_at(-u))
        pref = 2.0 ** (m / 2.0) / (2.0 * np.pi)
        n = 0
        while True:
            inc = sum(
                abs(pref * (np.trapezoid(gp * np.exp(-1j * k * u), dx=du)
                            + np.trapezoid(gn * np.exp(1j * k * u), dx=du))) ** 2
                for k in ([0] if n == 0 else [n, -n])
            )
            total += inc
            if n > 8 and inc < 1e-5 * f_energy:
                break
            n += 1
            if n > n_cap:
                break
        n_used[m] = n
    return total / f_energy, n_used


@pytest.mark.parametrize("a", [A, 0.9])
def test_completeness_shared_table_matches_per_n_quadrature(a):
    ph = BellEvaluator(a)
    fhat = gaussian_spectrum()
    rep = completeness_check(ph, fhat)
    ratio, n_used = _completeness_per_n(ph, fhat)
    assert rep.n_used == n_used
    assert max(n_used.values()) > 16  # past the first block of table rows
    assert abs(rep.ratio - ratio) <= 1e-14


def test_envelope_shape(wavelet):
    grid = wavelet.synthesis.grid
    xg = np.logspace(np.log10(50.0), 4.0, 60)
    table = decay_envelope(grid, xg, envelope_window(wavelet.ph))
    assert np.all(table.env[table.usable] <= grid.sup())
    assert np.all(np.diff(table.env) <= 0.0)  # nonincreasing on [50, 1e4]
    assert table.dropped == 0


def test_envelope_floor_flagging(wavelet):
    grid = wavelet.synthesis.grid
    xg = np.logspace(2.0, np.log10(3e4), 20)
    table = decay_envelope(grid, xg, envelope_window(wavelet.ph), floor=1e-6)
    assert table.dropped > 0
    assert np.sum(table.usable) + table.dropped == len(xg)


def test_fit_decay_gates_and_shapes(wavelet, fit_grid):
    table = decay_envelope(wavelet.synthesis.grid, fit_grid, envelope_window(wavelet.ph))
    fit = fit_decay(table, wavelet.sigma)
    assert fit.h_fit > 0
    assert fit.r_squared >= 0.9
    assert fit.shape_checks["log_ratio_increasing"]
    assert fit.shape_checks["sqrt_ratio_decreasing_top_decade"]
    assert fit.shape_checks["sublinear"]
    assert np.isfinite(fit.crossovers["gevrey2"])
    assert fit.comparator_table is not None
    assert fit.comparator_columns[:3] == ("x", "env", "T_sigma")
    # the T_sigma column is the regressor on the usable points
    xs = fit.comparator_table[:, 0]
    assert np.array_equal(xs, table.x[table.usable])
    assert np.array_equal(fit.comparator_table[:, 2], lambert_regressor(xs, 2.0))
    # regressor anchor: T_2(e^e) = log^2(e^e) / W(e) = e^2, as W(e) = 1
    anchor = lambert_regressor(np.array([math.e ** math.e]), 2.0)
    assert anchor[0] == pytest.approx(math.e ** 2)


def test_fit_decay_input_gates(wavelet, fit_grid):
    window = envelope_window(wavelet.ph)
    table = decay_envelope(wavelet.synthesis.grid, fit_grid[:10], window)
    with pytest.raises(InputError):
        fit_decay(table, wavelet.sigma)
    narrow = np.logspace(2, 2.5, 40)
    table2 = decay_envelope(wavelet.synthesis.grid, narrow, window)
    with pytest.raises(InputError):
        fit_decay(table2, wavelet.sigma)


def test_derivative_decay_rows(wavelet, fit_grid, lattice_cache):
    window = envelope_window(wavelet.ph)
    rows = []
    for n in (0, 1, 2, 4, 8):
        rows.append(
            derivative_decay_check(
                lattice_cache[n], n, fit_grid, window, wavelet.sigma
            )
        )
        assert rows[-1].h_fit > 0
        assert rows[-1].r_squared >= 0.9
    growth = intercept_growth_fit(rows)
    assert np.isfinite(growth.log_c_at_s1)
    assert 0.0 < growth.s_ls <= 1.0
    with pytest.raises(InputError):
        intercept_growth_fit(rows[1:])  # missing the n = 0 anchor


def test_mixed_audit_feasible(wavelet, lattice_cache):
    sigma = 2.0
    rep = mixed_bound_audit(wavelet.fronts(range(5)), 4, 4, sigma)
    assert rep.sup_table[0, 0] == pytest.approx(
        lattice_cache[0].sup(), rel=1e-15
    )
    # every constraint holds at the reported constants (direct substitution)
    for k in range(5):
        for q in range(5):
            lhs = math.log(rep.sup_table[k, q])
            rhs = (
                rep.log_c
                + k * rep.log_a
                + q * rep.log_b
                + math.lgamma(k + 1.0)
                + q ** sigma * (math.log(q) if q >= 1 else 0.0)
            )
            assert lhs <= rhs + 1e-9


def test_mixed_audit_domain():
    def unread():
        raise AssertionError("a front was read before the argument checks")
        yield

    with pytest.raises(InputError):
        mixed_bound_audit(unread(), 11, 2, 2.0)
    tiny = GridFunction(-1.0, 0.5, np.ones(4)).moment_front()
    with pytest.raises(InputError, match="need 3 fronts"):
        mixed_bound_audit(iter([tiny, tiny]), 2, 2, 2.0)


def _assert_front_sups_exact(grid):
    """Sups of |x|^k |value| over the front equal, bitwise, the brute-force
    sups over every sample."""
    ax, av = grid.moment_front()
    for k in range(11):
        brute = np.max(np.abs(grid.x()) ** k * np.abs(grid.values))
        assert np.max(ax ** k * av) == brute, k


@pytest.mark.parametrize("q", [0, 1, 8])
def test_moment_front_sups_equal_lattice_sups(wavelet, lattice_cache, q):
    grid = lattice_cache[q]
    _assert_front_sups_exact(grid)
    _assert_front_is_reference(grid)
    (ax, av), = wavelet.fronts([q])
    assert len(ax) < grid.n // 100
    assert np.all(np.diff(ax) > 0) and np.all(np.diff(av) < 0)


def _above_later(v):
    """Mask of the entries strictly above every later entry, by one reverse
    running max."""
    later = np.empty_like(v)
    later[-1:] = -np.inf
    later[:-1] = np.maximum.accumulate(v[:0:-1])[::-1]
    return v > later


def _reference_front(grid):
    """The moment front by one reverse running max over every |value| of
    each half-lattice, then the same merge: the block scan must select the
    same samples."""
    above_later = _above_later
    av = np.abs(grid.values)
    split = int(np.searchsorted(grid.x(), 0.0))
    idx = np.concatenate([
        split - 1 - np.flatnonzero(above_later(av[:split][::-1])),
        split + np.flatnonzero(above_later(av[split:])),
    ])
    ax, av = np.abs(grid.x0 + grid.dx * idx), av[idx]
    order = np.lexsort((av, ax))
    ax, av = ax[order], av[order]
    keep = above_later(av)
    return ax[keep], av[keep]


def _assert_front_is_reference(grid):
    ax, av = grid.moment_front()
    rx, rv = _reference_front(grid)
    assert np.array_equal(ax, rx) and np.array_equal(av, rv)
    assert ax.dtype == rx.dtype and av.dtype == rv.dtype


_PLATEAUS = np.repeat(np.random.default_rng(11).integers(-2, 3, 40), 7).astype(float)


@pytest.mark.parametrize("x0, dx, values", [
    # ties within and across the halves, exact zeros, the x = 0 node
    (-2.0, 0.5, [0.0, 3.0, -1.0, 2.0, 2.0, -2.0, 1.0, -3.0, 0.0]),
    # all-zero x < 0 half, the peak on the x = 0 node
    (-2.0, 0.5, [0.0, 0.0, 0.0, 0.0, 5.0, 1.0, -1.0, 0.5, 0.0]),
    # all-zero x > 0 half
    (-2.0, 0.5, [1.0, -2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    (-2.0, 0.5, [0.0] * 9),
    # off-centre lattice with many repeated values
    (-3.0, 0.25, np.random.default_rng(7).integers(-3, 4, 41).astype(float)),
    # longer than the 64-sample block, not a multiple of it: plateaus that
    # span block edges, split inside a block
    (-17.0, 0.125, _PLATEAUS),
    # every x >= 0 (split at 0) and every x < 0 (split at n)
    (0.0, 0.5, _PLATEAUS[:150]),
    (-100.0, 0.5, _PLATEAUS[:130]),
    # one block exactly, all-zero except a far tie with a near sample
    (-8.0, 0.25, np.r_[[0.0] * 32, 1.0, [0.0] * 30, -1.0]),
])
def test_moment_front_hand_made(x0, dx, values):
    values = np.asarray(values)
    grid = GridFunction(x0, dx, values)
    _assert_front_sups_exact(grid)
    _assert_front_is_reference(grid)
    # the front is exactly the set of samples no other sample dominates
    pts = sorted(set(zip(np.abs(grid.x()), np.abs(grid.values))))
    front = [p for p in pts
             if not any(o != p and o[0] >= p[0] and o[1] >= p[1] for o in pts)]
    assert list(zip(*grid.moment_front())) == front


@given(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0, -3.0]),
             min_size=1, max_size=400),
    st.integers(min_value=-1, max_value=401),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_moment_front_blocks_match_running_max(values, shift, plateaus):
    # few distinct magnitudes: ties, zeros and (repeated) plateaus everywhere;
    # the split falls anywhere from before the first sample to past the last
    from lambertwave.grids import _front_indices

    values = np.repeat(values, 5) if plateaus else np.asarray(values)
    grid = GridFunction(-0.5 * min(shift, len(values)), 0.5, values)
    _assert_front_is_reference(grid)
    # each half-front alone, before the merge could mend a superset
    for u in (values, values[::-1]):
        assert np.array_equal(_front_indices(u), np.flatnonzero(_above_later(np.abs(u))))


def test_large_x_below_fitted_envelope(wavelet, fit_grid):
    # cross-module consistency: point values beyond the fit grid stay under
    # the fitted decay model (with an order-of-magnitude allowance)
    from lambertwave import eval_psi_point, lambert_w0

    table = decay_envelope(wavelet.synthesis.grid, fit_grid, envelope_window(wavelet.ph))
    fit = fit_decay(table, wavelet.sigma)
    for x in (4.0e4, 5.5e4):
        t = math.log(x) ** 2 / lambert_w0(math.log(x))
        model = math.exp(-(fit.h_fit * t + fit.intercept))
        assert abs(eval_psi_point(wavelet.ph, x)) <= 10.0 * model


def test_completeness_fails_on_tiny_cap(wavelet):
    # a scale that has not converged at the cap fails; it cannot pass
    with pytest.raises(VerificationError, match="m = -4 .* cap of 2 ") as exc:
        completeness_check(wavelet.ph, gaussian_spectrum(), n_cap=2)
    assert exc.value.detail == -4


def test_inner_product_hermitian_swap(wavelet):
    swapped = inner_product(wavelet.ph, (1, -2), (0, 3))
    assert swapped == np.conj(inner_product(wavelet.ph, (0, 3), (1, -2)))


def test_inner_product_hermitian_every_pair(wavelet):
    # complex products round differently in the two orders: integrated both
    # ways, 14 of these ordered pairs miss by up to 8.8e-18 and every square norm
    # has an imaginary part (up to 3.6e-19); the swap must be exact
    idx = [(m, n) for m in (-1, 0, 1) for n in (-3, 0, 2)]
    for i1 in idx:
        for i2 in idx:
            fwd = inner_product(wavelet.ph, i1, i2, n_quad=2 ** 12 + 1)
            assert inner_product(wavelet.ph, i2, i1, n_quad=2 ** 12 + 1) == np.conj(fwd)
