"""Frequency-domain bell, the wavelet transform, and synthesis.

The bell is

    b(xi) = sin(theta_a(|xi| - pi)) * cos(theta_2a(|xi| - 2 pi)),

with ramps theta_a and theta_2a running from 0 to pi/2.  theta_a is the
running integral of the mass-pi/2 cone of half-width w = a/4 (the cone
cascade's first factor, a_1 = 1/4, dilated by a), in closed form:
theta_a(v) = (pi/2) C(v / w), with C the CDF of the unit triangle, so it is
0 and pi/2 bit-exactly outside [-w, w].  theta_2a is the same ramp at
half-width 2w, so theta_2a(2v) = theta_a(v) bitwise, which is what makes
the quadrature-free dyadic identities hold to rounding error.  b vanishes
for |xi| <= pi - w and |xi| >= 2 (pi + w) and is identically 1 on
[pi + w, 2 (pi - w)]; the admissible range 0 < a < pi/3 keeps the two
ramps apart even at half-width a (pi + a < 2 (pi - a)).  Nothing here
depends on sigma, so neither does the wavelet.

exp(i xi / 2) * b(xi) is then the Fourier transform of a real orthonormal
wavelet; synthesis inverts it with the convention
psi(x) = (1/2pi) Int b(xi) e^{i xi / 2} e^{-i x xi} d xi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .errors import DomainError, ResolutionError
from .grids import GridFunction, GridSpec

HALF_PI = np.pi / 2.0


def _ramp(v, w: float) -> np.ndarray:
    """(pi/2) C(v / w), C the CDF of the unit triangle: (1 + t)^2 / 2 for
    t <= 0 and 1 - (1 - t)^2 / 2 above, with t clamped to [-1, 1].  Both
    halves share h = (1 - |t|)^2 / 2, so ramp(v) + ramp(-v) is pi/2 up to
    one rounding."""
    t = np.clip(np.asarray(v, dtype=float) / w, -1.0, 1.0)
    h = 0.5 * (1.0 - np.abs(t)) ** 2
    return HALF_PI * np.where(t > 0.0, 1.0 - h, h)


class BellEvaluator:
    """The wavelet: point evaluator for the bell and for the transforms of
    the wavelet's members and their derivatives.

    ``ramp_half_width`` (w = a/4) is the half-width of theta_a's cutoff:
    the bell's knots sit at pi +- w, pi, 2 pi +- 2w and 2 pi, and w is the
    closest separation of its ramp frequencies, which sets the beat period.
    """

    def __init__(self, a: float):
        self.a = a
        self.band = (np.pi - a, 2.0 * (np.pi + a))
        self.ramp_half_width = a / 4.0
        self._lattice_band = None  # (L, psi_hat at the frequencies of L)

    def theta_a(self, v):
        return _ramp(v, self.ramp_half_width)

    def theta_2a(self, v):
        return _ramp(v, 2.0 * self.ramp_half_width)

    def bell_at(self, xi):
        # cos(theta_2a(v)) = sin(theta_2a(-v)): exactly 0 above 2 (pi + w)
        # and exactly 1 on the flat part, like the sine ramp below it
        u = np.abs(np.asarray(xi, dtype=float))
        return np.sin(self.theta_a(u - np.pi)) * np.sin(self.theta_2a(2.0 * np.pi - u))

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


def bell(a: float) -> BellEvaluator:
    """The bell (real, even) and wavelet transform evaluator for half-width
    a, which must lie in (0, pi/3)."""
    if not (0.0 < a < np.pi / 3.0):
        raise DomainError(f"half-width a must lie in (0, pi/3), got {a}")
    return BellEvaluator(a)


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

    grid = GridFunction(x0=-L / 2.0, dx=dxl, values=psi)
    return LatticeSynthesis(
        grid=grid, imag_max=imag_max, periodization_diff=per_diff, l2_norm=l2
    )


def eval_psi_point(ph: BellEvaluator, x: float) -> float:
    """Direct oscillatory quadrature of one wavelet value,

        psi(x) = (1/pi) Int b(xi) cos((x - 1/2) xi) d xi.

    The bell is smooth between its six knots (pi -+ w, pi, 2 pi -+ 2w,
    2 pi, w the ramp half-width), so the pieces between them are split into
    panels no wider than a quarter period of the cosine,
    pi / (2 max(|x - 1/2|, 1)), with 8 Gauss-Legendre nodes each.
    """
    if not np.isfinite(x):
        raise DomainError("evaluation point must be finite")
    u = x - 0.5
    w = ph.ramp_half_width
    knots = np.array([np.pi - w, np.pi, np.pi + w,
                      2.0 * (np.pi - w), 2.0 * np.pi, 2.0 * (np.pi + w)])
    n_panels = np.ceil(np.diff(knots) * (2.0 * max(abs(u), 1.0) / np.pi)).astype(int)
    edges = np.concatenate([
        np.linspace(lo, hi, n + 1)[:-1] for lo, hi, n in zip(knots, knots[1:], n_panels)
    ] + [knots[-1:]])
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    mid = 0.5 * (edges[1:] + edges[:-1])
    haf = 0.5 * (edges[1:] - edges[:-1])
    xi = (mid[:, None] + haf[:, None] * gl_x[None, :]).ravel()
    wts = (haf[:, None] * gl_w[None, :]).ravel()
    return float(np.sum(ph.bell_at(xi) * np.cos(u * xi) * wts) / np.pi)


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
    freq_pow: int = 16,
    L: float = 2.0 ** 18,
    N: int = 2 ** 22,
) -> WaveletBuild:
    """Build the bell evaluator and its certified lattice synthesis.

    The ramps are those of one cone of the cutoff cascade, its widest
    factor a_1 = 1/4 (for sigma > 1.297, where N_1 = 1): deeper factors
    steepen the decay beyond what double precision can exhibit across the
    verification window, while the orthonormality structure is exact at
    any depth.  ``sigma`` is carried for the stages that read it; the
    wavelet does not depend on it.
    """
    band = 2.0 * (np.pi + a) + 1.0
    nfreq = 2 ** freq_pow
    freq = GridSpec(-band, 2.0 * band / nfreq, nfreq + 1)
    ph = bell(a)
    return WaveletBuild(
        sigma=sigma,
        a=a,
        freq=freq,
        ph=ph,
        synthesis=synthesize_psi_lattice(ph, L=L, N=N),
        L=L,
        N=N,
    )
