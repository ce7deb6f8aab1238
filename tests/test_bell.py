"""Bell structure, wavelet transform, synthesis, and point evaluation."""

import ast
import dataclasses
import math
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest

import lambertwave
import lambertwave.bell as bell_module
from lambertwave import (
    BellEvaluator,
    DomainError,
    GridFunction,
    GridSpec,
    ResolutionError,
    build_wavelet,
    eval_psi_point,
    inner_product,
    synthesize_psi_lattice,
)
from lambertwave.verify import DERIV_ORDERS, MIXED_MAX

A = math.pi / 6.0
HALF_PI = math.pi / 2.0
W = A / 4.0  # half-width of theta_a's cone: the cascade's a_1 = 1/4, dilated by A
# the frequencies of psi_hat.csv: 2^16 + 1 over the band, widened by 1
_BAND = 2.0 * (math.pi + A) + 1.0
FREQ = GridSpec(-_BAND, 2.0 * _BAND / 2 ** 16, 2 ** 16 + 1)


def test_theta_clamps_and_center(wavelet):
    # theta_a is the running integral of the mass-pi/2 cone of half-width W
    th = wavelet.ph.theta_a
    v = np.linspace(-2.0 * W, 2.0 * W, 4001)
    t = th(v)
    assert np.all(t[v <= -W] == 0.0)
    assert np.all(t[v >= W] == HALF_PI)
    assert th(0.0) == math.pi / 4.0
    assert np.all(np.diff(t) >= 0.0)
    # continuous at the support ends: the quadratic tip is (pi/4)(eps/W)^2,
    # 7.9e-13 at eps = 1e-6 W; a clamp at the last sampled knot of a cutoff
    # on a 2^17 grid would jump by 4.4e-9
    eps = 1e-6 * W
    for end, val in ((-W, 0.0), (W, HALF_PI)):
        assert th(end) == val
        assert abs(th(end - math.copysign(eps, end)) - val) <= 1e-12


def test_theta_complementarity(wavelet):
    ph = wavelet.ph
    rng = np.random.RandomState(0)
    xs = rng.uniform(-A, A, 100)
    for th in (ph.theta_a, ph.theta_2a):
        assert np.max(np.abs(th(xs) + th(-xs) - HALF_PI)) <= 1e-15


def test_theta_dyadic_dilation_bitwise(wavelet):
    # theta_2a is theta_a dilated by 2, bit for bit
    ph = wavelet.ph
    v = np.concatenate([np.linspace(-A, A, 2001), np.random.RandomState(3).uniform(-W, W, 500)])
    assert np.array_equal(ph.theta_2a(2.0 * v), ph.theta_a(v))


def test_theta_mass_guard(wavelet):
    # theta_a' is the cone of mass pi/2 on [-W, W]: the difference quotients
    # of the ramp are its cell means, which sum to the mass
    v = np.linspace(-W, W, 2 ** 12 + 1)
    t = wavelet.ph.theta_a(v)
    assert t[-1] - t[0] == HALF_PI
    h = v[1] - v[0]
    mid = 0.5 * (v[1:] + v[:-1])
    cone = HALF_PI / W * (1.0 - np.abs(mid) / W)
    assert np.max(np.abs(np.diff(t) / h - cone)) <= 1e-9 * HALF_PI / W


def test_bell_flat_region_exact(wavelet):
    ph = wavelet.ph
    xi = np.linspace(math.pi + A, 2.0 * (math.pi - A), 1001)
    assert np.all(ph.bell_at(xi) == 1.0)
    assert np.all(ph.bell_at(-xi) == 1.0)


def test_bell_zero_outside(wavelet):
    ph = wavelet.ph
    xi = np.concatenate(
        [
            np.linspace(0.0, math.pi - A, 300),
            np.linspace(2.0 * (math.pi + A), 20.0, 300),
        ]
    )
    assert np.all(ph.bell_at(xi) == 0.0)
    assert np.all(ph.bell_at(-xi) == 0.0)


def test_bell_range_and_midpoint(wavelet):
    ph = wavelet.ph
    xi = np.linspace(-10.0, 10.0, 4001)
    vals = ph.bell_at(xi)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert ph.bell_at(np.array([math.pi]))[0] == pytest.approx(
        math.sqrt(2.0) / 2.0, abs=1e-9
    )


def test_bell_partition_identity(wavelet):
    # sin^2 + cos^2 of the same profile value: exact to one ulp
    ph = wavelet.ph
    xs = np.linspace(-A, A, 501)
    t = ph.theta_a(xs)
    assert np.max(np.abs(np.sin(t) ** 2 + np.cos(t) ** 2 - 1.0)) <= 4e-16


def test_bell_submodule_is_the_module():
    # no package attribute of the same name shadows the submodule
    import lambertwave.bell as mod

    assert mod is sys.modules["lambertwave.bell"]
    assert mod.BellEvaluator is BellEvaluator


def test_bell_domain_errors():
    # at a = 5e-324 the ramp half-width a/4 rounds to 0, and bell_at once
    # divided by it with a RuntimeWarning; the least a whose a/4 is a
    # double above 0 is admitted
    for a in (1.2, 0.0, 5e-324):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="a/4 > 0"):
                BellEvaluator(a)
    assert BellEvaluator(4 * 5e-324).ramp_half_width == 5e-324


def test_psi_hat_modulus_and_zero(wavelet):
    xi = FREQ.points()
    b_abs = np.abs(wavelet.ph.bell_at(xi))
    assert np.max(np.abs(np.abs(wavelet.ph.psi_hat_at(xi)) - b_abs)) <= 1e-15
    assert wavelet.ph.psi_hat_at(np.array([0.0]))[0] == 0.0
    # phase at pi: e^{i pi/2} b(pi) = i b(pi)
    val = wavelet.ph.psi_hat_at(np.array([math.pi]))[0]
    assert val.real == pytest.approx(0.0, abs=1e-12)
    assert val.imag == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-9)


# the lattice bands of the defaults and of a param_sweep-like config: (a,
# period L); the sweep's ramps cover 17.5% of its band, the defaults' 10.7%
LATTICE_BANDS = [(A, 2.0 ** 18), (0.95, 2.0 ** 17)]


def _dense_bell(ph, xi):
    """The bell's closed form on every sample, ramps and sines included."""
    u = np.abs(np.asarray(xi, dtype=float))
    return np.sin(ph.theta_a(u - math.pi)) * np.sin(ph.theta_2a(2.0 * math.pi - u))


def _dense_psi_hat(ph, xi):
    return np.exp(0.5j * np.asarray(xi, dtype=float)) * _dense_bell(ph, xi)


def _same_bits(x, y):
    """Bitwise equality through a uint64 view, so that signed zeros count."""
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    return (x.shape == y.shape and x.dtype == y.dtype
            and np.array_equal(x.view(np.uint64), y.view(np.uint64)))


def _knots(a):
    """The bell's knots pi - w, pi, pi + w, 2 pi - 2w, 2 pi, 2 pi + 2w, each
    with its neighbouring doubles, at both signs."""
    w = a / 4.0
    k = np.array([math.pi - w, math.pi, math.pi + w,
                  2.0 * math.pi - 2.0 * w, 2.0 * math.pi, 2.0 * math.pi + 2.0 * w])
    k = np.concatenate([np.nextafter(k, -np.inf), k, np.nextafter(k, np.inf)])
    return np.concatenate([k, -k, [0.0, -0.0]])


@pytest.mark.parametrize("a, L", LATTICE_BANDS)
def test_bell_ramp_only_matches_closed_form(a, L):
    # bell_at evaluates its ramps only where they vary; every value, signed
    # zeros included, is the closed form's, on the lattice band, the odd
    # band of the periodization check and every knot +-1 ulp
    ph = BellEvaluator(a)
    M, dxi = ph.lattice_m(L), 2.0 * math.pi / L
    xi = np.arange(-M, M + 1) * dxi
    assert _same_bits(ph.lattice_band(L), _dense_psi_hat(ph, xi))
    xi = np.concatenate([xi, (np.arange(-M, M) + 0.5) * dxi, _knots(a)])
    assert _same_bits(ph.bell_at(xi), _dense_bell(ph, xi))
    assert _same_bits(ph.psi_hat_at(xi), _dense_psi_hat(ph, xi))


# an a whose knots are doubles: at pi +- w and 2 pi - 2w the ramps'
# arguments are exactly +-w and 2w, the edges of the clamps
A_EXACT = 4.0 * ((math.pi + 0.13) - math.pi)


@pytest.mark.parametrize("a", [0.05, A, 0.9, 1.04, A_EXACT])
def test_bell_ramp_only_at_knots(a):
    ph = BellEvaluator(a)
    w = a / 4.0
    if a == A_EXACT:
        assert (math.pi + w) - math.pi == w and (math.pi - w) - math.pi == -w
        assert 2.0 * math.pi - (2.0 * math.pi - 2.0 * w) == 2.0 * w
    xi = np.concatenate([_knots(a), np.random.RandomState(5).uniform(-8.0, 8.0, 40001)])
    assert _same_bits(ph.bell_at(xi), _dense_bell(ph, xi))
    assert _same_bits(ph.psi_hat_at(xi), _dense_psi_hat(ph, xi))


def test_bell_ramp_only_keeps_shapes():
    # point_rule's (4, P, n) node array, a strided view and 0-d scalars
    ph = BellEvaluator(A)
    half, mid = ph.point_rule()[:2]
    t, _ = np.polynomial.legendre.leggauss(10)
    nodes = mid[:, :, None] + half[:, None, None] * t
    assert nodes.shape == (4, 6, 10)
    for xi in (nodes, -nodes[:, ::2], _knots(A)[::3]):
        assert _same_bits(ph.bell_at(xi), _dense_bell(ph, xi))
        assert _same_bits(ph.psi_hat_at(xi), _dense_psi_hat(ph, xi))
    for x in (math.pi, -(math.pi + W / 3.0), 1.5 * math.pi, 0.0, -0.0, 9.0):
        b = ph.bell_at(x)
        assert isinstance(b, np.float64) and _same_bits(b, _dense_bell(ph, x))
        z = ph.psi_hat_at(x)
        assert isinstance(z, np.complex128) and _same_bits(z, _dense_psi_hat(ph, x))
        assert isinstance(ph.psi_hat_at(x, q=3, m=1, n=2), np.complex128)
    assert np.isnan(ph.bell_at(np.array([math.pi, np.nan])))[1]


def test_ramp_mask_negative_control(monkeypatch):
    # a mask that drops the sample one ulp inside the lower knot pi - w,
    # where the ramp is tiny but not 0, fails the bitwise comparison
    ph = BellEvaluator(A)
    inside = np.nextafter(math.pi - W, math.inf)
    assert _dense_bell(ph, inside) > 0.0
    xi = np.concatenate([_knots(A), [inside]])
    assert _same_bits(ph.bell_at(xi), _dense_bell(ph, xi))
    samples = bell_module._ramp_samples

    def dropping(u, w):
        ramp, flat = samples(u, w)
        return ramp[u[ramp] != inside], flat

    monkeypatch.setattr(bell_module, "_ramp_samples", dropping)
    assert not _same_bits(ph.bell_at(xi), _dense_bell(ph, xi))


def test_lattice_band_allocates_little():
    # no band-sized ramp temporaries: at the defaults the frequencies, |xi|
    # and one mask scratch come to about 2.0x the 9.8 MB result
    ph = BellEvaluator(A)
    tracemalloc.start()
    try:
        band = ph.lattice_band(2.0 ** 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * band.nbytes


def test_derivative_factor_equals_complex_power():
    # (-i xi)^q in real arithmetic equals numpy's complex power in value,
    # so psi_hat_at and the synthesis' derivative bands agree
    ph = BellEvaluator(0.95)
    L = 2.0 ** 17
    xi = np.arange(-ph.lattice_m(L), ph.lattice_m(L) + 1) * (2.0 * math.pi / L)
    band = ph.lattice_band(L)
    for q in range(41):
        assert np.array_equal(bell_module._derivative_factor(xi, q, band),
                              (-1j * xi) ** q * band), q
        assert np.array_equal(ph.psi_hat_at(xi[::97], q), (-1j * xi[::97]) ** q * band[::97]), q


def test_synthesis_certificates(wavelet):
    syn = wavelet.synthesis
    assert abs(syn.l2_norm - 1.0) <= 1e-8
    assert syn.imag_max <= 1e-12
    assert syn.periodization_diff <= 1e-13


def _doubled_period_residual(ph, grid, L, N):
    """max |psi_2L - psi_L| on |x| <= L/4, psi_2L from an explicit 2N-point
    synthesis at period 2L, psi_L the samples of ``grid``."""
    dxi = math.pi / L
    M = int(np.ceil(ph.band[1] / dxi)) + 2
    j = np.arange(-M, M + 1)
    spec = np.zeros(2 * N, dtype=complex)
    spec[j % (2 * N)] = ph.psi_hat_at(j * dxi)
    k = np.arange(-(N // 4), N // 4 + 1)
    dbl = np.fft.fft(spec)[k % (2 * N)].real * (dxi / (2.0 * math.pi))
    return float(np.max(np.abs(dbl - grid.values[k + N // 2])))


def test_periodization_identity_matches_doubled_period(wavelet):
    syn = wavelet.synthesis
    oracle = _doubled_period_residual(wavelet.ph, syn.grid, wavelet.L, wavelet.N)
    assert syn.periodization_diff == pytest.approx(oracle, rel=0, abs=1e-17)
    # a smaller lattice, at a half-width whose residual clears the 1e-13 bar
    ph = BellEvaluator(0.9)
    L, N = 2.0 ** 17, 2 ** 19
    syn = synthesize_psi_lattice(ph, L=L, N=N)
    oracle = _doubled_period_residual(ph, syn.grid, L, N)
    assert 0.0 < syn.periodization_diff <= 1e-13
    assert syn.periodization_diff == pytest.approx(oracle, rel=0, abs=1e-17)


@pytest.mark.parametrize("N", [
    # four rows, compared two at a time, so k = N/4 - 1 (row 3) is in a
    # group with r0 > 0; one past the ends are row 1 at slot S/4 (the slot
    # only row 0 has in range) and row 3 at slot -S/4 - 1
    pytest.param(2 ** 20, id="1048576"),
])
def test_periodization_range_ends_at_quarter_length(N):
    # |k| <= N/4 exactly: a sample inside the range shows in the residual
    # by half its perturbation, and one past either end leaves the residual
    # as it was, bit for bit
    from lambertwave.bell import _periodization_diff

    ph, L = BellEvaluator(0.9), 2.0 ** 17
    psi = synthesize_psi_lattice(ph, L=L, N=N, check_periodization=False).grid.values
    base = _periodization_diff(ph, L, N, 0, psi)
    assert 0.0 < base <= 1e-13
    delta = 2.0 ** -30

    def perturbed(k):
        p = psi.copy()
        p[N // 2 + k] += delta
        return _periodization_diff(ph, L, N, 0, p)

    for k in (N // 4, -(N // 4), N // 4 - 1, -(N // 4) + 1):
        assert perturbed(k) == pytest.approx(0.5 * delta, rel=0, abs=2.0 * base), k
    for k in (N // 4 + 1, -(N // 4) - 1):
        assert perturbed(k) == base, k


def test_synthesis_symmetry_about_half(wavelet):
    grid = wavelet.synthesis.grid
    x = grid.x()
    i_half = int(round((0.5 - grid.x0) / grid.dx))
    assert x[i_half] == 0.5
    for r in (1, 5, 40, 333, 4096):
        assert grid.values[i_half + r] == pytest.approx(
            grid.values[i_half - r], rel=1e-10, abs=1e-13
        )


def test_point_eval_matches_lattice(wavelet):
    grid = wavelet.synthesis.grid
    sup = grid.sup()
    x = grid.x()
    # 20 deterministic probe points in the main-lobe region
    sel = []
    for xt in np.linspace(-6.0, 7.0, 53):
        i = int(round((xt - grid.x0) / grid.dx))
        if abs(grid.values[i]) >= 1e-3 * sup:
            sel.append(i)
        if len(sel) == 20:
            break
    assert len(sel) == 20
    for i in sel:
        pv = eval_psi_point(wavelet.ph, float(x[i]))
        assert abs(pv - grid.values[i]) <= 1e-8 * abs(grid.values[i])
    # ten tail nodes out to |x| = 3e4, inside the certified |x| <= L/4
    for xt in np.concatenate([-np.logspace(2, math.log10(3e4), 5),
                              np.logspace(2.3, math.log10(3e4), 5)]):
        i = int(round((xt - grid.x0) / grid.dx))
        pv = eval_psi_point(wavelet.ph, float(x[i]))
        assert abs(pv - grid.values[i]) <= 1e-12 * sup


def test_point_eval_symmetry_and_errors(wavelet):
    u = 0.77
    left = eval_psi_point(wavelet.ph, 0.5 - u)
    right = eval_psi_point(wavelet.ph, 0.5 + u)
    assert left == right  # cosine kernel is even in (x - 1/2)
    # a phase u xi past the largest double is refused, not computed as nan
    for x in (float("nan"), float("inf"), -float("inf"), 1.7e308, -1.7e308):
        with pytest.raises(DomainError):
            eval_psi_point(wavelet.ph, x)


def _quarter_period_rule(ph, x):
    """Reference oracle: psi(x) by Gauss-Legendre quadrature with 8 nodes
    on panels between the bell's six knots no wider than a quarter period
    of the cosine, pi / (2 max(|x - 1/2|, 1)); its cost grows with |x|."""
    u = x - 0.5
    w = ph.ramp_half_width
    knots = np.array([math.pi - w, math.pi, math.pi + w,
                      2.0 * (math.pi - w), 2.0 * math.pi, 2.0 * (math.pi + w)])
    total = 0.0
    t, wt = np.polynomial.legendre.leggauss(8)
    for lo, hi in zip(knots, knots[1:]):
        n = int(math.ceil((hi - lo) * 2.0 * max(abs(u), 1.0) / math.pi))
        piece = np.linspace(lo, hi, n + 1)
        for start in range(0, n, 2 ** 10):
            edges = piece[start:start + 2 ** 10 + 1]
            mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
            half = 0.5 * (edges[1:] - edges[:-1])[:, None]
            xi = mid + half * t
            total += float(np.sum(ph.bell_at(xi) * np.cos(u * xi) * (half * wt)))
    return total / math.pi


def test_point_eval_matches_quarter_period_rule_beyond_the_lattice(wavelet):
    # past |x| = L/4 = 65,536 the lattice certifies nothing: the old
    # x-dependent rule is the reference there
    sup = wavelet.synthesis.grid.sup()
    for x in (1e4, -1e4, 1e5, -1.5e5):
        ref = _quarter_period_rule(wavelet.ph, x)
        assert abs(eval_psi_point(wavelet.ph, x) - ref) <= 1e-14 * sup, x
    # and the reference reproduces a main-lobe lattice value
    grid = wavelet.synthesis.grid
    i = int(round((3.3125 - grid.x0) / grid.dx))
    assert abs(_quarter_period_rule(wavelet.ph, 3.3125) - grid.values[i]) <= 1e-12 * sup


def test_point_rule_is_x_independent(monkeypatch):
    # the bell is sampled once per evaluator, whatever x is asked for next
    ph = BellEvaluator(A)
    calls = []
    bell_at = BellEvaluator.bell_at

    def counted(self, xi):
        calls.append(np.size(xi))
        return bell_at(self, xi)

    monkeypatch.setattr(BellEvaluator, "bell_at", counted)
    eval_psi_point(ph, 0.25)
    bell_mod = sys.modules["lambertwave.bell"]
    assert calls == [4 * bell_mod._POINT_PANELS * bell_mod._POINT_NODES]
    for x in np.concatenate([[0.5], np.linspace(-1e5, 1e5, 41), [3e4 + 0.0625]]):
        eval_psi_point(ph, float(x))
    assert len(calls) == 1


def test_point_eval_far_out_returns_at_fixed_cost(wavelet):
    # the old rule took ceil(knot gap * 2|u| / pi) panels: about 2.25e9 at
    # |x| = 1e9, 18 GB of panel edges; now the work does not depend on x
    sup = wavelet.synthesis.grid.sup()
    for x in (1e12, -1e12):
        assert abs(eval_psi_point(wavelet.ph, x)) <= 1e-12 * sup


def _filon_reference(ph, x):
    """psi(x) by the Filon-Legendre rule's per-point formula as first
    written: the moments 2 i^k j_k(|u| h) of each piece, an einsum with
    ``point_rule()``'s coefficients, the phases e^{i u mid} and the ramp
    sum weighted by h, in numpy on every step."""
    u = abs(x - 0.5)
    w = ph.ramp_half_width
    alpha, beta = np.pi + w, 2.0 * (np.pi - w)
    flat = beta - alpha
    if u:
        flat = 2.0 * np.cos(u * (0.5 * (alpha + beta))) * np.sin(u * (0.5 * flat)) / u
    half, mid, coef = ph.point_rule()[:3]
    k = np.arange(coef.shape[-1])
    moments = 2.0 * np.array([1.0, 1j, -1.0, -1j])[k % 4] * bell_module._spherical_j(u * half)
    sums = np.einsum("pjk,pk->pj", coef, moments)
    ramps = np.sum(half[:, None] * (np.exp(1j * (u * mid)) * sums).real)
    return float((flat + ramps) / np.pi)


def test_point_eval_matches_the_per_point_formula(wavelet):
    # the lean path (Filon weights, one product, one reduction) against the
    # formula it replaced, at lattice nodes out to |x| = 3e4 and at 1e12:
    # omega = |u| h below the moment split for every piece, above it for
    # every piece, and at 500.0625 on both sides of it at once
    grid = wavelet.synthesis.grid
    sup = grid.sup()
    ph = BellEvaluator(A)
    half = ph.point_rule()[0]
    cut = bell_module._MOMENT_CUT
    nodes = np.concatenate([np.linspace(-6.0, 7.0, 27), [500.0625, -733.5],
                            np.logspace(1, math.log10(3e4), 12),
                            -np.logspace(1.3, math.log10(3e4), 12)])
    nodes = grid.x0 + np.round((nodes - grid.x0) / grid.dx) * grid.dx
    regimes = set()
    for x in [*nodes.tolist(), 1e12, -1e12]:
        omega = abs(x - 0.5) * half
        regimes.add((bool(np.all(omega <= cut)), bool(np.all(omega > cut))))
        assert abs(eval_psi_point(ph, x) - _filon_reference(ph, x)) <= 1e-15 * sup, x
    assert regimes == {(True, False), (False, True), (False, False)}


def test_legendre_tables_made_once_per_process(monkeypatch):
    # the Gauss-Legendre nodes, weights and Vandermonde of the point rule
    # are made once per process: once one evaluator has built its rule, a
    # new evaluator's reads them from the cache, and no evaluator calls
    # leggauss's eigen-solve or legvander
    BellEvaluator(A).point_rule()
    tables = bell_module._legendre_rule(bell_module._POINT_NODES)
    leg = np.polynomial.legendre
    calls = []

    def counted(name):
        original = getattr(leg, name)

        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    for name in ("leggauss", "legvander"):
        monkeypatch.setattr(leg, name, counted(name))
    for _ in range(2):
        ph = BellEvaluator(A)
        coef = ph.point_rule()[2]
        eval_psi_point(ph, 7.25)
    assert calls == []
    # a rebuild would have put new arrays in the cache
    assert bell_module._legendre_rule(bell_module._POINT_NODES) is tables
    assert coef.shape == (4, bell_module._POINT_PANELS, bell_module._POINT_NODES)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 10, 11])
def test_legendre_rule_matches_leggauss(n):
    # the Newton-built rule against numpy's eigen-solve and Vandermonde, at
    # the node counts the point rule runs with: nodes within an ulp, the
    # transform within 4e-15 of its largest entry (both are within 1.5e-15
    # of 40-digit values at n = 9..11)
    leg = np.polynomial.legendre
    t, transform, unit = bell_module._legendre_rule(n)
    ref_t, ref_w = leg.leggauss(n)
    ref = ref_w[:, None] * leg.legvander(ref_t, n - 1) * (np.arange(n) + 0.5)
    assert np.all(np.diff(t) > 0) and np.array_equal(t, -t[::-1])
    assert np.max(np.abs(t - ref_t)) <= 1.2e-16
    assert np.max(np.abs(transform - ref)) <= 4e-15 * np.max(np.abs(ref))
    assert np.array_equal(unit, 2.0 * np.array([1.0, 1j, -1.0, -1j])[np.arange(n) % 4])
    # D inverts the Legendre series at the nodes: coefficients of P_j are e_j
    assert np.max(np.abs(leg.legvander(t, n - 1).T @ transform - np.eye(n))) <= 1e-14


def test_point_moments_match_scipy():
    # the Filon moments' j_k, against scipy's spherical_jn kept as an
    # independent oracle, on both sides of the rule/recurrence split and out
    # to the largest omega point_eval reaches at |x| = 3e4
    from scipy.special import spherical_jn

    cut = bell_module._MOMENT_CUT
    omega = np.unique(np.concatenate([
        [0.0, 1e-300, cut, np.nextafter(cut, np.inf)],
        np.linspace(0.0, 20.0, 20001), np.linspace(20.0, 3e3, 20001)]))
    k = np.arange(bell_module._POINT_NODES)
    err = np.abs(bell_module._spherical_j(omega) - spherical_jn(k, omega[:, None]))
    assert np.max(err) <= 2e-15


def _spherical_j_exact(omega):
    """j_k(omega), k < ``_POINT_NODES``, each as a pair of doubles (hi, lo)
    with hi + lo the value: the upward recurrence from sin and cos, in
    mpmath at 120 digits.  The recurrence loses digits as omega falls, but
    from omega = 4e-4 up its error stays below 1e-32 (against 60-digit
    ``besselj``), far under the 1e-16 the rule is checked to."""
    K = bell_module._POINT_NODES
    hi, lo = np.zeros((2, len(omega), K))
    with mpmath.workdps(120):
        for i, om in enumerate(omega.tolist()):
            if om == 0.0:
                hi[i, 0] = 1.0
                continue
            x = mpmath.mpf(om)
            s, c = mpmath.sin(x), mpmath.cos(x)
            j = [s / x, (s / x - c) / x]
            for k in range(1, K - 1):
                j.append((2 * k + 1) / x * j[k] - j[k - 1])
            for k, v in enumerate(j):
                hi[i, k] = float(v)
                lo[i, k] = float(v - hi[i, k])
    return hi, lo


# _moment_rule's table is rounded once from an extended longdouble; where
# longdouble is double it carries the float rule's rounding, and j_k errs by
# 6.2e-16 (the float rule's table, on 80,001 omega in [0, 8])
_EXTENDED = pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                               reason="longdouble is double on this platform")


@_EXTENDED
def test_spherical_j_rule_against_mpmath():
    # the rule's side of the split, omega <= 8, at steps of 1e-3 against
    # 40-digit values: 3.0e-16 (3.2e-16 at steps of 1e-4), peaking at small
    # omega in j_0, where the 10 nonzero products of its sum round; a table
    # whose entries are not rounded once (Clenshaw sums begun in double)
    # errs by 3.3e-16 here
    omega = np.linspace(0.0, bell_module._MOMENT_CUT, 8001)
    hi, lo = _spherical_j_exact(omega)
    # J - hi is exact: the two are doubles within a few ulps
    err = np.abs((bell_module._spherical_j(omega) - hi) - lo)
    assert np.max(err) <= 3.3e-16


@_EXTENDED
def test_moment_rule_is_rounded_once():
    # _moment_rule's nodes and w_i P_k(t_i) are longdouble values rounded
    # to double once: each within half an ulp of its 40-digit value, up to
    # longdouble's own error (0.509 ulp at worst), and the longdouble rule's
    # nodes are the float rule's within an ulp
    n, K = bell_module._MOMENT_NODES, bell_module._POINT_NODES
    t = bell_module._MOMENT_IT.imag
    table = bell_module._MOMENT_TABLE.reshape(n // 2, 2, K).sum(axis=1)
    table *= np.array([1.0, 1.0, -1.0, -1.0])[np.arange(K) % 4]
    worst = 0.0
    with mpmath.workdps(40):
        for i, ti in enumerate(t.tolist()):
            x = mpmath.mpf(ti)
            for _ in range(3):  # Newton's iteration on P_n from the double node
                p, q = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
                x -= p * (1 - x * x) / (n * (q - x * p))
            p, q = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
            w = 2 * (1 - x * x) / (n * (q - x * p)) ** 2
            worst = max(worst, float(abs(ti - x)) / math.ulp(ti))
            for k in range(K):
                v = table[i, k]
                worst = max(worst, float(abs(v - w * mpmath.legendre(k, x))) / math.ulp(v))
    assert worst <= 0.51
    t_long = bell_module._legendre_rule(n, np.longdouble)[0]
    t_float = bell_module._legendre_rule(n)[0]
    assert t_long.dtype == np.longdouble and t_float.dtype == float
    assert np.all(np.abs(t_long - t_float) <= np.spacing(np.abs(t_float)))


def _knot_expressions(path):
    """The lines of ``path`` outside ``BellEvaluator.__init__`` that form
    pi +- a or pi +- w: a sum or difference of pi and an expression that
    names the half-width a or the ramp half-width w."""
    tree = ast.parse(path.read_text())
    owner = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "BellEvaluator":
            init = next(f for f in cls.body
                        if isinstance(f, ast.FunctionDef) and f.name == "__init__")
            owner = {id(n) for n in ast.walk(init)}

    def is_pi(n):
        return isinstance(n, ast.Attribute) and n.attr == "pi" or (
            isinstance(n, ast.Name) and n.id == "pi")

    def names_width(n):
        return any(isinstance(m, ast.Name) and m.id in ("a", "w")
                   or isinstance(m, ast.Attribute) and m.attr in ("a", "ramp_half_width")
                   for m in ast.walk(n))

    return sorted({
        node.lineno for node in ast.walk(tree)
        if id(node) not in owner and isinstance(node, ast.BinOp)
        and isinstance(node.op, (ast.Add, ast.Sub))
        and any(map(is_pi, (node.left, node.right)))
        and any(map(names_width, (node.left, node.right)))
    })


def test_bell_geometry_has_one_owner():
    # the envelope (pi - a, 2 (pi + a)), the knots pi +- w and 2 (pi +- w)
    # and the flat part are formed in BellEvaluator.__init__ alone
    # (band, support_end, pieces, flat); every other line reads them
    src = Path(bell_module.__file__).parent
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := _knot_expressions(path))}
    assert found == {}


def _rule_interpolation_error(ph):
    """max |b - p| on each panel of ``ph.point_rule()``, on 2001 points:
    b from ``bell_at`` at each sample xi, p the panel's Legendre series at
    t = (xi - mid) / h."""
    half, mid, coef = ph.point_rule()[:3]
    worst = np.empty(mid.shape)
    for p in range(mid.shape[0]):
        for j in range(mid.shape[1]):
            xi = np.linspace(mid[p, j] - half[p], mid[p, j] + half[p], 2001)
            t = (xi - mid[p, j]) / half[p]
            worst[p, j] = np.max(np.abs(
                ph.bell_at(xi) - np.polynomial.legendre.legval(t, coef[p, j])))
    return half, worst


def test_point_rule_interpolates_the_bell(monkeypatch):
    # the rule's constants are the least pair that meets b to 8e-15 on every
    # panel (4.3e-15 measured); one panel or one node fewer does not (1.2e-14
    # and 7.2e-14)
    bell_mod = sys.modules["lambertwave.bell"]
    P, n = bell_mod._POINT_PANELS, bell_mod._POINT_NODES
    half, worst = _rule_interpolation_error(BellEvaluator(A))
    assert worst.shape == (4, P)
    assert np.max(worst) <= 8e-15
    # the error bound (1/pi) sum 2 h max|b - p| is below 1e-15 of sup psi
    assert np.sum(2.0 * half[:, None] * worst) / math.pi <= 1e-15
    for fewer in ((P - 1, n), (P, n - 1)):
        monkeypatch.setattr(bell_mod, "_POINT_PANELS", fewer[0])
        monkeypatch.setattr(bell_mod, "_POINT_NODES", fewer[1])
        ph = BellEvaluator(A)
        # the patched counts reach the rule: its tables are kept per node count
        assert ph.point_rule()[2].shape == (4, *fewer)
        assert np.max(_rule_interpolation_error(ph)[1]) > 8e-15, fewer


def test_member_spectrum_identity_and_support(wavelet):
    ph = wavelet.ph
    xi = FREQ.points()
    assert np.array_equal(ph.psi_hat_at(xi, m=0, n=0), ph.psi_hat_at(xi))
    # member (2, 3) on the base grid scaled by 4 is 2^{-1} e^{3 i xi} psi_hat(xi)
    # (the scaling by 4 is exact), nonzero only inside the dyadic band
    m23 = ph.psi_hat_at(4.0 * xi, m=2, n=3)
    assert np.array_equal(m23, 0.5 * np.exp(3j * xi) * ph.psi_hat_at(xi))
    ax = 4.0 * np.abs(xi)
    band = (ax > 4.0 * (math.pi - A)) & (ax < 8.0 * (math.pi + A))
    assert np.all(m23[~band] == 0.0)
    # the bell itself ends at 2 (pi + W): exactly zero above, nonzero below
    top = 2.0 * (math.pi + W)
    assert np.all(m23[band & (np.abs(xi) >= math.pi) & (np.abs(xi) < top)] != 0.0)
    assert np.all(m23[np.abs(xi) >= top] == 0.0)
    with pytest.raises(DomainError):
        ph.psi_hat_at(xi, m=31)


def test_member_norm_preserved(wavelet):
    val = inner_product(wavelet.ph, (1, 3), (1, 3))
    assert abs(val - 1.0) <= 1e-8


def test_derivative_spectrum(wavelet):
    ph = wavelet.ph
    xi = FREQ.points()
    assert np.array_equal(ph.psi_hat_at(xi, q=0), ph.psi_hat_at(xi))
    at_pi = ph.psi_hat_at(np.array([math.pi]), q=1)[0]
    expect = -1j * math.pi * ph.psi_hat_at(np.array([math.pi]))[0]
    assert abs(at_pi - expect) <= 1e-12
    with pytest.raises(DomainError):
        ph.psi_hat_at(xi, q=41)
    with pytest.raises(DomainError):
        ph.psi_hat_at(xi, q=-1)


def test_derivative_sup_bandwidth_bound(wavelet, lattice_cache):
    # sup |psi^(q)| <= max|xi|^q * (1/2pi) Int b  (band-limited growth)
    band = 2.0 * (math.pi + A)
    b = wavelet.ph.bell_at(FREQ.points())
    b_l1 = np.trapezoid(np.abs(b), dx=FREQ.dx)
    cap = b_l1 / (2.0 * math.pi)
    for q in (1, 2, 4, 8):
        sup = lattice_cache[q].sup()
        assert sup <= band ** q * cap * 1.0001


def test_synthesis_coarse_sampling_guard(wavelet):
    # 2 pi / 100 frequency spacing leaves ~230 samples across the band
    with pytest.raises(ResolutionError, match="too coarse"):
        synthesize_psi_lattice(wavelet.ph, L=100.0, N=2 ** 10)


def test_synthesis_guard_counts_the_support():
    # at a = 1.0 and L = 1700 the envelope 2 (pi + a) spans 4,482 samples,
    # enough, but b's support 2 (pi + w), w = a/4, holds only 3,671
    ph = BellEvaluator(1.0)
    dxi = 2.0 * math.pi / 1700.0
    assert 2.0 * ph.band[1] / dxi >= 2 ** 12 > 4.0 * (math.pi + ph.ramp_half_width) / dxi
    assert 2 * ph.lattice_m(1700.0) + 1 < 2 ** 12  # the lattice itself is long enough
    with pytest.raises(ResolutionError, match="too coarse"):
        synthesize_psi_lattice(ph, L=1700.0, N=2 ** 12, check_periodization=False)


@pytest.mark.parametrize("N", [2 ** 14 + 2, 6000, 3 * 2 ** 17])
def test_synthesis_refuses_a_lattice_size_not_a_power_of_two(N, monkeypatch):
    # the transform's rule, checked after the resolution guards and before
    # the band is sampled
    def sampled(self, L):
        raise AssertionError("the band was sampled")

    monkeypatch.setattr(BellEvaluator, "lattice_band", sampled)
    with pytest.raises(DomainError, match="power of two"):
        synthesize_psi_lattice(BellEvaluator(A), L=2.0 ** 11, N=N)


def _padded_fft(band, N):
    """numpy.fft.fft of the band zero-padded to N at its centred indices."""
    M = len(band) // 2
    spec = np.zeros(N, dtype=complex)
    spec[np.arange(-M, len(band) - M) % N] = band
    return np.fft.fft(spec)


def _transform_rows(band, N):
    """Every row of ``_lattice_fft``, by row index r: X_{Rs+r} = rows[r, s]."""
    from lambertwave.bell import _lattice_fft

    got = {}
    for r0, rows in _lattice_fft(band, N):
        for r, row in enumerate(rows, r0):
            got[r] = row.copy()
    return np.array([got[r] for r in range(len(got))])


@pytest.mark.parametrize("N, L, R", [
    pytest.param(2 ** 14, 2.0 ** 11, 1, id="16384"),
    # the band (4,785 entries) is wider than N/2
    pytest.param(2 ** 13, 2.0 ** 11, 1, id="8192"),
    # two rows of 2^18, param_sweep's lattice: the one size with R = 2;
    # blocks -1 and 1 share the residue 1, on opposite halves of its slots
    pytest.param(2 ** 19, 2.0 ** 17, 2, id="524288-L131072"),
    # four rows of 2^18: coefficients and twiddles past 1
    pytest.param(2 ** 20, 2.0 ** 11, 4, id="1048576-L2048"),
    # the band (305,845 entries) spans more than a row: three blocks
    pytest.param(2 ** 20, 2.0 ** 17, 4, id="1048576-L131072"),
    # eight rows: the blocks' coefficients are eighth roots of unity
    pytest.param(2 ** 21, 2.0 ** 17, 8, id="2097152-L131072"),
])
def test_two_row_transform_matches_padded_fft(N, L, R):
    ph = BellEvaluator(A)
    band = ph.lattice_band(L)
    ref = _padded_fft(band, N)
    rows = _transform_rows(band, N)
    assert rows.shape == (R, N // R)
    sup = np.max(np.abs(ref))
    for r in range(R):
        assert np.max(np.abs(rows[r] - ref[r::R])) <= 1e-15 * sup
    # the odd-frequency band of the periodization check has 2M entries
    M = len(band) // 2
    odd = ph.psi_hat_at((np.arange(-M, M) + 0.5) * (2.0 * math.pi / L))
    ref, rows = _padded_fft(odd, N), _transform_rows(odd, N)
    for r in range(R):
        assert np.max(np.abs(rows[r] - ref[r::R])) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("N, L", [
    pytest.param(2 ** 14, 2.0 ** 11, id="16384"),
    pytest.param(2 ** 19, 2.0 ** 17, id="524288-L131072"),
    pytest.param(2 ** 20, 2.0 ** 11, id="1048576"),
])
def test_synthesis_centred_at_half_length(N, L):
    # x = 0 sits at index N/2, also where the rows are written as two or
    # four strided columns: the samples are the fftshift of the padded
    # transform
    ph = BellEvaluator(A)
    grid = synthesize_psi_lattice(ph, L=L, N=N, check_periodization=False).grid
    assert grid.n == N and grid.x0 + grid.dx * (N // 2) == 0.0
    ref = np.fft.fftshift(_padded_fft(ph.lattice_band(L), N).real) * (1.0 / L)
    assert np.max(np.abs(grid.values - ref)) <= 1e-15 * np.max(np.abs(ref))


def _peak_above_import(module: str, statement: str, *argv: str) -> float:
    """The peak resident memory, in MB, of ``statement`` run in a fresh
    process, above the process's level once ``module`` is imported; argv
    is the source root, then ``argv``.

    The child reads its own VmHWM, by the reader of ``manifest.json``
    (``cli._rss_high_water_mb``): ru_maxrss would start from the resident
    size of the process it is forked from, which Linux carries across exec,
    so under a test session that holds the shared fixtures it reads 0."""
    src = str(Path(lambertwave.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
            "from lambertwave.cli import _rss_high_water_mb as hwm; "
            f"base = hwm(); {statement}; print(hwm() - base)")
    out = subprocess.run([sys.executable, "-c", code, src, *argv], capture_output=True,
                         text=True, check=True).stdout
    return float(out)


# build_wavelet()'s peak RSS above an import-only process, in MB, at the
# defaults: 95.4 measured as VmHWM with numpy's FFT and no scipy in the
# process (89.7 with scipy's, whose freed import memory the build reused),
# with the bell's ramps taken only where they vary (101.0 with ramps and
# sines over the whole band, scipy), 107.5 with one FFT call per group of
# four rows, 235 with two N/2-point rows on two threads
BUILD_PEAK_MB = 128.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM of /proc/self/status")
def test_build_wavelet_peak_memory():
    # a fresh process, so that no other test's arrays or plans count
    assert _peak_above_import("lambertwave", "lambertwave.build_wavelet()") < BUILD_PEAK_MB


# `lambertwave all`'s peak RSS above an import-only process, in MB, at the
# defaults: 118.4 measured with psi's lattice let go before the decay fit's
# first derivative pair (121.2 with scipy in the process; 152.9 with the
# lattice held through the mixed audit)
ALL_PEAK_MB = 136.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM of /proc/self/status")
def test_all_peak_memory(tmp_path):
    # the run's peak is set while a derivative pair is alive, and psi's
    # 32 MB lattice must not be beside it
    run_all = "assert lambertwave.cli.main(['all', '--out-dir', sys.argv[2]]) == 0"
    assert _peak_above_import("lambertwave.cli", run_all, str(tmp_path)) < ALL_PEAK_MB


# the short lattice of the paired-synthesis tests: 2^14 samples, period 2^11
PAIR_L, PAIR_N = 2.0 ** 11, 2 ** 14


@pytest.mark.parametrize("q, q2", [(1, 8), (8, 1), (3, 5), (4, 8)])
def test_paired_synthesis_matches_solo(q, q2):
    # two real orders in one transform, the second scaled by 2^e to the
    # first's magnitude: each channel stays within 1e-15 of its sup of the
    # order synthesized alone on |x| <= L/4 (3.6e-16 at worst; unbalanced,
    # psi' in the (1, 8) pair is off by 6.7e-12)
    ph = BellEvaluator(A)
    pair = synthesize_psi_lattice(
        ph, L=PAIR_L, N=PAIR_N, check_periodization=False, q=q, q2=q2
    )
    assert pair.l2_norm is None
    for order, grid in ((q, pair.grid), (q2, pair.grid2)):
        solo = synthesize_psi_lattice(
            ph, L=PAIR_L, N=PAIR_N, check_periodization=False, q=order
        ).grid
        assert (grid.x0, grid.dx) == (solo.x0, solo.dx)
        inner = np.abs(solo.x()) <= PAIR_L / 4.0
        assert np.max(np.abs(grid.values - solo.values)[inner]) <= 1e-15 * solo.sup()


def test_lattice_m_at_the_bell_support_keeps_the_lattices(monkeypatch):
    # M sized from b's support, 2 (pi + w), not from the envelope
    # 2 (pi + a): b is exactly 0 in between, so psi's lattice, its
    # periodization residual and the (4, 8) pair with its imaginary residue
    # are bitwise those of the envelope's larger M
    from lambertwave.bell import _periodization_diff

    def lattices():
        ph = BellEvaluator(A)
        psi = synthesize_psi_lattice(ph, L=PAIR_L, N=PAIR_N, check_periodization=False)
        pair = synthesize_psi_lattice(ph, L=PAIR_L, N=PAIR_N, check_periodization=False,
                                      q=4, q2=8)
        residual = _periodization_diff(ph, PAIR_L, PAIR_N, 0, psi.grid.values)
        return (ph.lattice_m(PAIR_L), psi.grid.values, residual, pair.grid.values,
                pair.grid2.values, pair.imag_max)

    M, *ours = lattices()
    monkeypatch.setattr(BellEvaluator, "lattice_m", lambda self, L: int(
        np.ceil(self.band[1] / (2.0 * np.pi / L))) + 2)
    envelope_M, *theirs = lattices()
    assert M < envelope_M
    for got, ref in zip(ours, theirs):
        assert _same_bits(np.asarray(got), np.asarray(ref))


# the smallest lattice whose certified synthesis passes at the default a:
# 2^20 samples, period 2^18
RELEASE_L, RELEASE_N = 2.0 ** 18, 2 ** 20


def test_pairs_cover_the_audited_orders():
    # bell cannot import verify, so this is the tie between the two: the
    # table holds each order 1..MIXED_MAX once, and its first two pairs are
    # the decay fit's orders, which every command that reads them makes first
    orders = [q for pair in bell_module.PAIRS for q in pair]
    assert sorted(orders) == list(range(1, MIXED_MAX + 1))
    assert tuple(q for pair in bell_module.PAIRS[:2] for q in pair) == DERIV_ORDERS


def test_lattices_make_an_order_in_its_table_pair(wavelet, monkeypatch):
    # an order is synthesized in its pair of PAIRS, (3, 5) for 3, with no
    # periodization check; visit sees 3 alone, but the front of 5 is kept
    # too, so fronts() makes neither again; psi (order 0) and an order in
    # no pair are refused
    bell_mod = sys.modules["lambertwave.bell"]
    calls, synthesize = [], bell_mod.synthesize_psi_lattice

    def counted(*args, **kwargs):
        calls.append((args, kwargs, synthesize(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(bell_mod, "synthesize_psi_lattice", counted)
    monkeypatch.setattr(wavelet, "_fronts", {})
    seen = wavelet.lattices([3], lambda q, grid: (q, grid))
    assert len(calls) == 1
    args, kwargs, syn = calls[0]
    assert args == (wavelet.ph,)
    assert kwargs == {"L": wavelet.L, "N": wavelet.N, "check_periodization": False,
                      "q": 3, "q2": 5}
    assert seen == [(3, syn.grid)]
    assert set(wavelet._fronts) == {3, 5}
    for q, grid in ((3, syn.grid), (5, syn.grid2)):
        (ax, av), = wavelet.fronts([q])
        fx, fv = grid.moment_front()
        assert np.array_equal(ax, fx) and np.array_equal(av, fv)
    assert len(calls) == 1
    for orders in ([0], [9], [3, 0]):
        with pytest.raises(DomainError, match="in none of the pairs"):
            wavelet.lattices(orders, lambda q, grid: grid)
    assert len(calls) == 1


def test_lattices_visit_in_request_order(monkeypatch):
    # the pairs are made in table order whatever the request order, and the
    # visits come back in request order
    wb = build_wavelet(L=RELEASE_L, N=RELEASE_N)
    made = []
    synthesize = bell_module.synthesize_psi_lattice

    def counted(*args, **kwargs):
        made.append((kwargs["q"], kwargs["q2"]))
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(bell_module, "synthesize_psi_lattice", counted)
    assert wb.lattices([7, 2, 6, 1], lambda q, grid: q) == [7, 2, 6, 1]
    assert made == [(1, 2), (6, 7)]


def test_release_psi_keeps_the_front():
    # a fresh build holds psi's lattice, which perfbench's point checks read;
    # released, it goes and its front stays: fronts() still gives order 0
    # with no synthesis, and a second release does nothing; lattices()
    # never makes order 0, before the release or after it
    wb = build_wavelet(L=RELEASE_L, N=RELEASE_N)
    assert isinstance(wb.synthesis.grid, GridFunction) and wb.synthesis.grid.n == RELEASE_N
    with pytest.raises(DomainError, match="in none of the pairs"):
        wb.lattices([0], lambda q, grid: grid)
    values = weakref.ref(wb.synthesis.grid.values)
    fx, fv = wb.synthesis.grid.moment_front()
    l2 = wb.synthesis.l2_norm
    wb.release_psi()
    assert values() is None and wb.synthesis.grid is None
    assert wb.synthesis.l2_norm == l2
    wb.release_psi()
    (ax, av), = wb.fronts([0])
    assert np.array_equal(ax, fx) and np.array_equal(av, fv)
    with pytest.raises(DomainError, match="in none of the pairs"):
        wb.lattices([0], lambda q, grid: grid)


def test_release_psi_keeps_a_front_taken_before():
    # a front made by fronts() before the release is the one kept
    wb = build_wavelet(L=RELEASE_L, N=RELEASE_N)
    front = wb.fronts([0])[0]
    wb.release_psi()
    assert wb.fronts([0])[0] is front


def test_non_hermitian_band_rejected(monkeypatch):
    # a band with B_j != conj(B_-j) synthesizes a complex psi: alone, the
    # imaginary residue is measured; in a pair each channel's band must pass
    # the bound sum_j |B_j - conj(B_-j)| dxi / (4 pi)
    ph = BellEvaluator(A)
    band = ph.lattice_band(PAIR_L).copy()
    j = len(band) // 2 + int(1.5 * PAIR_L / 2.0)  # xi near 1.5 pi, where b = 1
    band[j] += 1e-3
    monkeypatch.setattr(ph, "lattice_band", lambda L: band)
    for q, q2 in ((0, None), (1, None), (1, 2), (8, 3)):
        with pytest.raises(ResolutionError, match="imaginary residue"):
            synthesize_psi_lattice(
                ph, L=PAIR_L, N=PAIR_N, check_periodization=False, q=q, q2=q2
            )


def test_build_wavelet_profile_flags(wavelet):
    # the ramps are the closed form of the cascade's first cone factor
    # a_1 = 1/4 dilated by a: no sampled cutoff is built or kept, and the
    # wavelet does not depend on sigma
    assert wavelet.ph.ramp_half_width == A / 4.0
    assert not hasattr(wavelet, "master")
    assert not {"freq", "a"} & {f.name for f in dataclasses.fields(wavelet)}
    xi = FREQ.points()
    assert np.array_equal(BellEvaluator(A).psi_hat_at(xi), wavelet.ph.psi_hat_at(xi))


def test_psi_at_half_fixture(wavelet):
    # (1/pi) Int b over the band; frozen from the trapezoid oracle, and the
    # lattice peak sits exactly there
    val = eval_psi_point(wavelet.ph, 0.5)
    assert val == pytest.approx(1.0238174991247, abs=1e-9)
    ph = wavelet.ph
    u = np.linspace(math.pi - A, 2 * (math.pi + A), 2 ** 20 + 1)
    oracle = np.trapezoid(ph.bell_at(u), dx=u[1] - u[0]) / math.pi
    assert val == pytest.approx(oracle, abs=1e-9)
    grid = wavelet.synthesis.grid
    assert grid.x()[int(np.argmax(np.abs(grid.values)))] == 0.5
