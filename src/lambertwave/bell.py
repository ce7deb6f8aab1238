"""Frequency-domain bell, the wavelet transform profile, and synthesis.

The bell is

    b(xi) = sin(theta_a(|xi| - pi)) * cos(theta_2a(|xi| - 2 pi)),

vanishing for |xi| <= pi - a and |xi| >= 2 (pi + a), identically 1 on
[pi + a, 2 (pi - a)] (the admissible range 0 < a < pi/3 makes those regions
meet properly).  theta_a is the running integral of a mass-pi/2 cutoff of
half-width a, clamped bit-exactly to 0 and pi/2 outside its support; the
width-2a profile is the exact dyadic dilation of the same cutoff, which is
what makes the quadrature-free dyadic identities hold to rounding error.

exp(i xi / 2) * b(xi) is then the Fourier transform of a real orthonormal
wavelet; synthesis inverts it with the convention
psi(x) = (1/2pi) Int b(xi) e^{i xi / 2} e^{-i x xi} d xi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .errors import DomainError, InputError, ResolutionError
from .grids import GridFunction, GridSpec
from .mollifier import MollifierBuild, build_mollifier, dilate_normalize

HALF_PI = np.pi / 2.0


class CumulativeProfile:
    """Exact running integral of the linear interpolant of a sampled bump.

    Evaluation anywhere is the piecewise-quadratic antiderivative; outside
    the sampled support it clamps bit-exactly to 0 on the left and to
    ``total`` on the right.  Samples are rescaled so the full integral is
    exactly ``total``.
    """

    def __init__(self, phi: GridFunction, total: float):
        v = np.asarray(phi.values, dtype=float)
        h = phi.dx
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * h)])
        if cum[-1] <= 0:
            raise InputError("profile has no mass")
        scale = total / cum[-1]
        self.values = v * scale
        self.cum = cum * scale
        self.x0 = phi.x0
        self.h = h
        self.total = total
        nz = np.nonzero(self.values)[0]
        if len(nz) == 0:
            raise InputError("profile has no nonzero samples")
        self.lo_x = phi.x0 + nz[0] * h
        self.hi_x = phi.x0 + nz[-1] * h

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        j = np.clip(
            np.floor((x - self.x0) / self.h).astype(int), 0, len(self.values) - 2
        )
        frac = x - (self.x0 + j * self.h)
        out = (
            self.cum[j]
            + self.values[j] * frac
            + (self.values[j + 1] - self.values[j]) * frac * frac / (2.0 * self.h)
        )
        out = np.where(x <= self.lo_x, 0.0, out)
        out = np.where(x >= self.hi_x, self.total, out)
        return out


class BellEvaluator:
    """The wavelet: point evaluator for the bell and for the transforms of
    the wavelet's members and their derivatives.

    Bundles the two cumulative profiles with the half-width a; carries the
    knot spacing of the underlying sampled cutoff so that oscillatory
    quadratures can align their panels with it.
    """

    def __init__(self, a: float, prof_a: CumulativeProfile, prof_2a: CumulativeProfile):
        self.a = a
        self.prof_a = prof_a
        self.prof_2a = prof_2a
        self.knot_h = prof_a.h
        self.band = (np.pi - a, 2.0 * (np.pi + a))
        # minimal separation of ramp knot frequencies: half-width of the
        # actual (possibly narrower) cutoff support; governs beat periods
        self.ramp_half_width = prof_a.hi_x
        self._lattice_band = None  # (L, psi_hat at the frequencies of L)

    def bell_at(self, xi):
        u = np.abs(np.asarray(xi, dtype=float))
        out = np.sin(self.prof_a(u - np.pi)) * np.cos(self.prof_2a(u - 2.0 * np.pi))
        return np.where((u <= self.band[0]) | (u >= self.band[1]), 0.0, out)

    def psi_hat_at(self, xi, q: int = 0, m: int = 0, n: int = 0):
        """Transform of the q-th derivative of the member 2^{m/2} psi(2^m x - n):

            xi -> (-i xi)^q 2^{-m/2} e^{i 2^{-m} n xi} psi_hat(2^{-m} xi),

        with psi_hat(u) = e^{i u/2} b(u).  Exact for the band-limited
        spectrum; |m| > 30 (overflow guard) and q outside [0, 40] are rejected.
        """
        if abs(m) > 30:
            raise DomainError(f"scale |m| > 30 rejected (overflow guard), got {m}")
        if q < 0 or q > 40:
            raise DomainError(f"derivative order must be in [0, 40], got {q}")
        xi = np.asarray(xi, dtype=float)
        u = 2.0 ** (-m) * xi if m else xi
        out = np.exp(0.5j * u) * self.bell_at(u)
        # the factors skipped below are exactly 1, but a complex product with
        # them can flip the signed zeros off the band that psi_hat.csv records
        if m or n:
            out = 2.0 ** (-m / 2.0) * np.exp(1j * n * u) * out
        if q:
            out = (-1j * xi) ** q * out
        return out

    def lattice_band(self, L: float) -> np.ndarray:
        """psi_hat at the frequencies j 2 pi / L, j = -M..M, with M two
        steps past the band edge.  Sampled once per period: the samples of
        the last L asked for are kept."""
        if self._lattice_band is None or self._lattice_band[0] != L:
            dxi = 2.0 * np.pi / L
            M = int(np.ceil(self.band[1] / dxi)) + 2
            self._lattice_band = (L, self.psi_hat_at(np.arange(-M, M + 1) * dxi))
        return self._lattice_band[1]


def bell(a: float, phi_a: GridFunction, phi_2a: GridFunction) -> BellEvaluator:
    """The bell (real, even) and wavelet transform evaluator for half-width a.

    ``phi_a`` and ``phi_2a`` are the mass-pi/2 cutoffs of half-widths a and
    2a; build the second as the exact dilation of the first so the dyadic
    identity theta_2a(2v) = theta_a(v) holds to rounding error.
    """
    if not (0.0 < a < np.pi / 3.0):
        raise DomainError(f"half-width a must lie in (0, pi/3), got {a}")
    for name, gf, width in (("phi_a", phi_a, a), ("phi_2a", phi_2a, 2 * a)):
        if abs(gf.integral() - HALF_PI) > 1e-6:
            raise InputError(f"{name} mass deviates from pi/2 by more than 1e-6")
        if gf.support[0] < -width - 1e-12 or gf.support[1] > width + 1e-12:
            raise InputError(f"{name} support exceeds [-{width}, {width}]")
    return BellEvaluator(a, CumulativeProfile(phi_a, HALF_PI), CumulativeProfile(phi_2a, HALF_PI))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

@dataclass
class LatticeSynthesis:
    """Wavelet samples on the lattice x = j L / N with diagnostics."""

    grid: GridFunction
    imag_max: float
    periodization_diff: float
    l2_norm: float


def _lattice_fft(band: np.ndarray, N: int) -> np.ndarray:
    """N-point DFT sum_j band[j] e^{-2 pi i j k / N} of samples at the
    centred indices j = -M..M (band has 2M + 1 entries) or j = -M..M-1
    (2M entries), for k = 0..N-1."""
    M = len(band) // 2
    spec = np.zeros(N, dtype=complex)
    spec[:len(band) - M] = band[M:]
    spec[N - M:] = band[:M]
    return np.fft.fft(spec, out=spec)


def synthesize_psi_lattice(
    ph: BellEvaluator,
    L: float = 2.0 ** 18,
    N: int = 2 ** 22,
    check_periodization: bool = True,
    q: int = 0,
) -> LatticeSynthesis:
    """Inverse transform of psi^(q) onto the lattice {j L / N} via a
    zero-padded DFT.

    Sampling the spectrum at 2 pi / L computes the L-periodization psi_L of
    the wavelet.  The wraparound on the reporting range |x| <= L/4 is
    certified below 1e-13 against the 2L-periodization (a half-period
    reference would be dirtier than the synthesis itself).  Its samples at
    the same lattice points split by frequency parity into psi_L / 2 and
    an odd-frequency part: one N-point DFT of psi_hat^(q) at
    (j + 1/2) 2 pi / L, twiddled by e^{-i pi k / N}.  psi_2L - psi_L is
    therefore that part minus psi_L / 2, and no 2N-point synthesis is made.
    The Hermitian spectrum must synthesize real: the imaginary residue is
    checked against 1e-12.
    """
    # resolve the bell across its support: at least 2^12 samples
    if (2.0 * ph.band[1]) / (2.0 * np.pi / L) < 2 ** 12:
        raise ResolutionError("frequency sampling too coarse across the band")

    dxi = 2.0 * np.pi / L
    band = ph.lattice_band(L)
    if len(band) >= N:
        raise ResolutionError("lattice too small for the spectral bandwidth")
    M = len(band) // 2
    if q:
        # psi_hat_at's factor on the same samples: the FFT input is
        # bit-identical to sampling psi_hat^(q) directly
        band = (-1j * (np.arange(-M, M + 1) * dxi)) ** q * band
    vals = _lattice_fft(band, N)
    vals *= dxi / (2.0 * np.pi)
    imag_max = float(np.max(np.abs(vals.imag)))
    scale = max(1.0, float(np.max(np.abs(vals.real))))
    if imag_max > 1e-12 * scale:
        raise ResolutionError(
            f"imaginary residue {imag_max:.3e} exceeds 1e-12 relative to "
            f"the synthesis scale {scale:.3e}"
        )
    dxl = L / N
    l2 = float(np.sqrt(np.sum(vals.real ** 2) * dxl))
    # centred: x = 0 at index N // 2
    psi = np.fft.fftshift(vals.real)
    del vals

    per_diff = 0.0
    if check_periodization:
        k = np.arange(-(N // 4), N // 4 + 1)
        odd = _lattice_fft(ph.psi_hat_at((np.arange(-M, M) + 0.5) * dxi, q), N)[k]
        odd *= np.exp(-1j * np.pi * k / N)
        per_diff = float(np.max(np.abs(
            odd.real * (dxi / (4.0 * np.pi)) - 0.5 * psi[k + N // 2]
        )))
        if per_diff > 1e-13:
            raise ResolutionError(
                f"periodization residual {per_diff:.3e} exceeds 1e-13"
            )

    grid = GridFunction(
        x0=-L / 2.0,
        dx=dxl,
        values=psi,
        support=(-L / 2.0, L / 2.0 - dxl),
    )
    return LatticeSynthesis(
        grid=grid, imag_max=imag_max, periodization_diff=per_diff, l2_norm=l2
    )


def eval_psi_point(ph: BellEvaluator, x: float) -> float:
    """Direct oscillatory quadrature of one wavelet value,

        psi(x) = (1/pi) Int_{band} b(xi) cos((x - 1/2) xi) d xi.

    Panels align with the knots of the sampled bell profile, where its
    piecewise polynomial changes; 8 Gauss-Legendre nodes per panel then give
    well over the minimum 8 nodes per oscillation period for |x| up to the
    synthesis range.
    """
    if not np.isfinite(x):
        raise DomainError("evaluation point must be finite")
    u = x - 0.5
    lo, hi = ph.band
    n_panels = int(np.ceil((hi - lo) / ph.knot_h))
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    haf = 0.5 * (edges[1:] - edges[:-1])
    xi = (mid[:, None] + haf[:, None] * gl_x[None, :]).ravel()
    wts = (haf[:, None] * gl_w[None, :]).ravel()
    vals = ph.bell_at(xi).real
    return float(np.sum(vals * np.cos(u * xi) * wts) / np.pi)


# ---------------------------------------------------------------------------
# Pipeline bundle
# ---------------------------------------------------------------------------

@dataclass
class WaveletBuild:
    """Everything the verification stages need, built in one shot; the
    owner of the wavelet's derivative lattices (``lattice``) and of their
    moment fronts (``front``)."""

    sigma: float
    a: float
    master: MollifierBuild
    phi_a: GridFunction
    phi_2a: GridFunction
    freq: GridSpec  # frequency grid of the psi_hat.csv artifact
    ph: BellEvaluator
    synthesis: LatticeSynthesis
    L: float
    N: int
    # q -> moment front of the psi^(q) lattice; whole lattices (N samples
    # each) are not kept
    fronts: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False
    )

    def lattice(self, q: int = 0) -> GridFunction:
        """Samples of psi^(q) on the synthesis lattice {j L / N}: the
        certified synthesis at q = 0, and above it a fresh synthesis with
        no periodization check.  The moment front of each is kept."""
        if q == 0:
            grid = self.synthesis.grid
        else:
            grid = synthesize_psi_lattice(
                self.ph, L=self.L, N=self.N, check_periodization=False, q=q
            ).grid
        if q not in self.fronts:
            self.fronts[q] = grid.moment_front()
        return grid

    def front(self, q: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """``moment_front()`` of the psi^(q) lattice, synthesizing it only
        if ``lattice(q)`` has not made it yet."""
        if q not in self.fronts:
            self.lattice(q)
        return self.fronts[q]


def build_wavelet(
    sigma: float = 2.0,
    a: float = np.pi / 6.0,
    grid_pow: int = 17,
    freq_pow: int = 16,
    profile_cutoff: float = 0.2,
    L: float = 2.0 ** 18,
    N: int = 2 ** 22,
) -> WaveletBuild:
    """Build cutoff -> bell evaluator -> lattice synthesis.

    The spectral profile keeps only the widest cascade factors
    (``profile_cutoff``) of a cone-based cascade: deeper factors, or the
    analytic bump, steepen the decay beyond what double precision can
    exhibit across the verification window, while the orthonormality
    structure is exact at any truncation depth.
    """
    spec = GridSpec.symmetric(1.5, grid_pow)
    master = build_mollifier(sigma, spec, cutoff=profile_cutoff, base="cone")
    phi_a = dilate_normalize(master.phi, a, HALF_PI)
    phi_2a = dilate_normalize(master.phi, 2.0 * a, HALF_PI)
    band = 2.0 * (np.pi + a) + 1.0
    nfreq = 2 ** freq_pow
    freq = GridSpec(-band, 2.0 * band / nfreq, nfreq + 1)
    ph = bell(a, phi_a, phi_2a)
    synth = synthesize_psi_lattice(ph, L=L, N=N)
    return WaveletBuild(
        sigma=sigma,
        a=a,
        master=master,
        phi_a=phi_a,
        phi_2a=phi_2a,
        freq=freq,
        ph=ph,
        synthesis=synth,
        L=L,
        N=N,
    )
