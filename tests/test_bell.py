"""Bell structure, wavelet transform, synthesis, and point evaluation."""

import math

import numpy as np
import pytest

from lambertwave import (
    CumulativeProfile,
    DomainError,
    InputError,
    ResolutionError,
    bell,
    dilate_normalize,
    eval_psi_point,
    inner_product,
    synthesize_psi_lattice,
)

A = math.pi / 6.0
HALF_PI = math.pi / 2.0


@pytest.fixture(scope="module")
def profiles(wavelet):
    return wavelet.phi_a, wavelet.phi_2a


def test_theta_clamps_and_center(profiles):
    # theta_a is the running integral of the mass-pi/2 cutoff phi_a
    phi_a, _ = profiles
    x = phi_a.x()
    th = CumulativeProfile(phi_a, HALF_PI)(x)
    supp_hi = phi_a.support[1]
    assert np.all(th[x <= -supp_hi] == 0.0)
    assert np.all(th[x >= supp_hi] == HALF_PI)
    center = int(round(-phi_a.x0 / phi_a.dx))
    assert th[center] == pytest.approx(math.pi / 4.0, abs=1e-9)
    assert np.all(np.diff(th) >= 0.0)


def test_theta_complementarity(wavelet):
    ph = wavelet.ph
    rng = np.random.RandomState(0)
    xs = rng.uniform(-A, A, 100)
    vals = ph.prof_a(xs) + ph.prof_a(-xs)
    assert np.max(np.abs(vals - HALF_PI)) <= 1e-9


def test_theta_mass_guard(profiles):
    phi_a, phi_2a = profiles
    bad = dilate_normalize(phi_a, 1.0, HALF_PI * 1.001)
    with pytest.raises(InputError, match="phi_a mass"):
        bell(A, bad, phi_2a)


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
    t = ph.prof_a(xs)
    assert np.max(np.abs(np.sin(t) ** 2 + np.cos(t) ** 2 - 1.0)) <= 4e-16


def test_bell_domain_errors(wavelet):
    with pytest.raises(DomainError):
        bell(1.2, wavelet.phi_a, wavelet.phi_2a)
    with pytest.raises(DomainError):
        bell(0.0, wavelet.phi_a, wavelet.phi_2a)
    too_wide = dilate_normalize(wavelet.master.phi, 5.0 * A, HALF_PI)
    with pytest.raises(InputError):
        bell(A, too_wide, wavelet.phi_2a)  # support exceeds [-a, a]


def test_psi_hat_modulus_and_zero(wavelet):
    xi = wavelet.freq.points()
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
    ph = bell(a, dilate_normalize(wavelet.master.phi, a, HALF_PI),
              dilate_normalize(wavelet.master.phi, 2.0 * a, HALF_PI))
    L, N = 2.0 ** 17, 2 ** 19
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


def test_point_eval_symmetry_and_errors(wavelet):
    u = 0.77
    left = eval_psi_point(wavelet.ph, 0.5 - u)
    right = eval_psi_point(wavelet.ph, 0.5 + u)
    assert left == right  # cosine kernel is even in (x - 1/2)
    with pytest.raises(DomainError):
        eval_psi_point(wavelet.ph, float("nan"))


def test_member_spectrum_identity_and_support(wavelet):
    ph = wavelet.ph
    xi = wavelet.freq.points()
    assert np.array_equal(ph.psi_hat_at(xi, m=0, n=0), ph.psi_hat_at(xi))
    # member (2, 3) on the base grid scaled by 4 is 2^{-1} e^{3 i xi} psi_hat(xi)
    # (the scaling by 4 is exact), nonzero only inside the dyadic band
    m23 = ph.psi_hat_at(4.0 * xi, m=2, n=3)
    assert np.array_equal(m23, 0.5 * np.exp(3j * xi) * ph.psi_hat_at(xi))
    ax = 4.0 * np.abs(xi)
    band = (ax > 4.0 * (math.pi - A)) & (ax < 8.0 * (math.pi + A))
    assert np.all(m23[~band] == 0.0)
    assert np.all(m23[band & (np.abs(xi) >= math.pi)] != 0.0)
    with pytest.raises(DomainError):
        ph.psi_hat_at(xi, m=31)


def test_member_norm_preserved(wavelet):
    val = inner_product(wavelet.ph, (1, 3), (1, 3))
    assert abs(val - 1.0) <= 1e-8


def test_derivative_spectrum(wavelet):
    ph = wavelet.ph
    xi = wavelet.freq.points()
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
    b = wavelet.ph.bell_at(wavelet.freq.points())
    b_l1 = np.trapezoid(np.abs(b), dx=wavelet.freq.dx)
    cap = b_l1 / (2.0 * math.pi)
    for q in (1, 2, 4, 8):
        sup = lattice_cache[q].sup()
        assert sup <= band ** q * cap * 1.0001


def test_synthesis_coarse_sampling_guard(wavelet):
    # 2 pi / 100 frequency spacing leaves ~230 samples across the band
    with pytest.raises(ResolutionError, match="too coarse"):
        synthesize_psi_lattice(wavelet.ph, L=100.0, N=2 ** 10)


def test_build_wavelet_profile_flags(wavelet):
    # default profile truncates after the first cascade factor
    assert not wavelet.master.degenerate  # a_1 = 0.25 clears the 0.2 cutoff
    assert len(wavelet.master.scales) == 1
    assert wavelet.phi_a.support[1] <= A
    assert wavelet.phi_2a.support[1] <= 2 * A


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
