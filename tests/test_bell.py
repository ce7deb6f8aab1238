"""Bell structure, wavelet transform, synthesis, and point evaluation."""

import dataclasses
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lambertwave
from lambertwave import (
    BellEvaluator,
    DomainError,
    GridSpec,
    ResolutionError,
    eval_psi_point,
    inner_product,
    synthesize_psi_lattice,
)

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
    a = 0.9
    ph = BellEvaluator(a)
    L, N = 2.0 ** 17, 2 ** 19
    # N = 2 (mod 4) too: there the centring shift N/2 is odd, and the
    # transform is one row of N points
    for N in (2 ** 19, 2 ** 19 + 2):
        syn = synthesize_psi_lattice(ph, L=L, N=N)
        oracle = _doubled_period_residual(ph, syn.grid, L, N)
        assert 0.0 < syn.periodization_diff <= 1e-13
        assert syn.periodization_diff == pytest.approx(oracle, rel=0, abs=1e-17)


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


def _rule_interpolation_error(ph):
    """max |b - p| on each panel of ``ph.point_rule()``, on 2001 points:
    b from ``bell_at`` at each sample xi, p the panel's Legendre series at
    t = (xi - mid) / h."""
    half, mid, coef = ph.point_rule()
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
        assert np.max(_rule_interpolation_error(BellEvaluator(A))[1]) > 8e-15, fewer


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
    pytest.param(2 ** 14, 2.0 ** 11, 1, id="16384"),  # N = 0 (mod 4)
    # N = 2 (mod 4): the centring shift N/2 is odd
    pytest.param(2 ** 14 + 2, 2.0 ** 11, 1, id="16386"),
    # the band (4,785 entries) is wider than N/2
    pytest.param(2 ** 13, 2.0 ** 11, 1, id="8192"),
    pytest.param(2 ** 13 + 2, 2.0 ** 11, 1, id="8194"),  # both
    # two rows of 2^18, param_sweep's lattice: the one size with R = 2
    pytest.param(2 ** 19, 2.0 ** 17, 2, id="524288-L131072"),
    # N/4 is odd: the doubling stops at two rows of 262,146 points, whose
    # twiddle cells have B = gcd(S, 512) = 2 slots
    pytest.param(2 ** 19 + 4, 2.0 ** 17, 2, id="524292-L131072"),
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
    pytest.param(2 ** 14 + 2, 2.0 ** 11, id="16386"),
    pytest.param(2 ** 19, 2.0 ** 17, id="524288-L131072"),
    pytest.param(2 ** 19 + 4, 2.0 ** 17, id="524292-L131072"),
    pytest.param(2 ** 20, 2.0 ** 11, id="1048576"),
])
def test_synthesis_centred_at_half_length(N, L):
    # x = 0 sits at index N/2, also where the shift N/2 is odd and where
    # the rows are written as two or four strided columns: the samples are
    # the fftshift of the padded transform
    ph = BellEvaluator(A)
    grid = synthesize_psi_lattice(ph, L=L, N=N, check_periodization=False).grid
    assert grid.n == N and grid.x0 + grid.dx * (N // 2) == 0.0
    ref = np.fft.fftshift(_padded_fft(ph.lattice_band(L), N).real) * (1.0 / L)
    assert np.max(np.abs(grid.values - ref)) <= 1e-15 * np.max(np.abs(ref))


# build_wavelet()'s peak RSS above an import-only process, in MB, at the
# defaults: 107.5 measured with the short-row transforms, 235 with two
# N/2-point rows on two threads
BUILD_PEAK_MB = 128.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_build_wavelet_peak_memory():
    # a fresh process, so that no other test's arrays or plans count
    src = str(Path(lambertwave.__file__).resolve().parents[1])
    code = ("import resource, sys; sys.path.insert(0, sys.argv[1]); import lambertwave; "
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "base = peak(); lambertwave.build_wavelet(); print((peak() - base) / 1024)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert float(out) < BUILD_PEAK_MB


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


def test_lattices_synthesize_an_odd_order_alone(wavelet, monkeypatch):
    # an order with no nonzero order after it is synthesized alone, with no
    # periodization check; q = 0 is handed back as the certified synthesis,
    # and the front kept for order 3 spares fronts() a second synthesis
    bell_mod = sys.modules["lambertwave.bell"]
    calls, synthesize = [], bell_mod.synthesize_psi_lattice

    def counted(*args, **kwargs):
        calls.append((args, kwargs, synthesize(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(bell_mod, "synthesize_psi_lattice", counted)
    monkeypatch.setattr(wavelet, "_fronts", {})
    seen = wavelet.lattices([3, 0], lambda q, grid: (q, grid))
    assert len(calls) == 1
    args, kwargs, syn = calls[0]
    assert args == (wavelet.ph,)
    assert kwargs == {"L": wavelet.L, "N": wavelet.N, "check_periodization": False,
                      "q": 3, "q2": None}
    assert [q for q, _ in seen] == [3, 0]
    assert seen[0][1] is syn.grid and syn.grid2 is None
    assert seen[1][1] is wavelet.synthesis.grid
    (ax, av), = wavelet.fronts([3])
    assert len(calls) == 1
    fx, fv = syn.grid.moment_front()
    assert np.array_equal(ax, fx) and np.array_equal(av, fv)


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
