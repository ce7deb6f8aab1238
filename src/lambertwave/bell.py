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
psi(x) = (1/2pi) Int b(xi) e^{i xi / 2} e^{-i x xi} d xi.  Every psi^(q) is
real, so one FFT synthesizes two derivative orders, one in its real part and
one in its imaginary part (``synthesize_psi_lattice`` with ``q2``).  Each
N-point transform is made as R rows of at most 2^18 points, on one thread
(``_lattice_fft``), and consumed a few rows at a time: no N-point complex
buffer is made.  R = 1 where N <= 2^18: the one row is then the plain FFT.

Off the lattice, ``eval_psi_point`` evaluates one value
psi(x) = (1/pi) Int b(xi) cos((x - 1/2) xi) d xi by a Filon-Legendre rule
(Filon 1928; Iserles & Norsett 2005): b is interpolated on nodes that do
not depend on x, built once per evaluator (``BellEvaluator.point_rule``),
and the cosine is integrated exactly, so a point costs the same at every x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np
import scipy.fft
from scipy.special import spherical_jn

from .errors import DomainError, ResolutionError
from .grids import GridFunction, abs_max

HALF_PI = np.pi / 2.0
_CHUNK = 2 ** 16  # points per span of the band placement and per pass of the periodization check
_ROW = 2 ** 18  # longest transform row (4 MiB of complex values)
_GROUP = 4  # rows per transform call
_PASS = 2 ** 12  # row slots per pass of the row assembly, a multiple of 512


def _ramp(v, w: float) -> np.ndarray:
    """(pi/2) C(v / w), C the CDF of the unit triangle: (1 + t)^2 / 2 for
    t <= 0 and 1 - (1 - t)^2 / 2 above, with t clamped to [-1, 1].  Both
    halves share h = (1 - |t|)^2 / 2, so ramp(v) + ramp(-v) is pi/2 up to
    one rounding."""
    t = np.clip(np.asarray(v, dtype=float) / w, -1.0, 1.0)
    h = 0.5 * (1.0 - np.abs(t)) ** 2
    return HALF_PI * np.where(t > 0.0, 1.0 - h, h)


class BellEvaluator:
    """The wavelet: point evaluator for the bell (real, even) and for the
    transforms of the wavelet's members and their derivatives, at a
    half-width a in (0, pi/3).

    ``ramp_half_width`` (w = a/4) is the half-width of theta_a's cutoff:
    the bell's knots sit at pi +- w, pi, 2 pi +- 2w and 2 pi, and w is the
    closest separation of its ramp frequencies, which sets the beat period.
    """

    def __init__(self, a: float):
        if not (0.0 < a / 4.0 and a < np.pi / 3.0):  # w = a/4 must not underflow
            raise DomainError(f"half-width a must lie in (0, pi/3), with a/4 > 0, got {a}")
        self.a = a
        self.band = (np.pi - a, 2.0 * (np.pi + a))
        self.ramp_half_width = a / 4.0
        self._lattice_band = None  # (L, psi_hat at the frequencies of L)
        self._point_rule = None  # eval_psi_point's panels and coefficients

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

    def lattice_m(self, L: float) -> int:
        """M of ``lattice_band(L)``: two steps of 2 pi / L past the band edge."""
        return int(np.ceil(self.band[1] / (2.0 * np.pi / L))) + 2

    def lattice_band(self, L: float) -> np.ndarray:
        """psi_hat at the frequencies j 2 pi / L, j = -M..M (``lattice_m``).
        Sampled once per period: the samples of the last L asked for are
        kept.  Like ``point_rule``'s, they cannot go stale: the ramps are
        fixed when the evaluator is constructed."""
        if self._lattice_band is None or self._lattice_band[0] != L:
            M, dxi = self.lattice_m(L), 2.0 * np.pi / L
            self._lattice_band = (L, self.psi_hat_at(np.arange(-M, M + 1) * dxi))
        return self._lattice_band[1]

    def point_rule(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The x-independent data of ``eval_psi_point``: for each of the
        four ramp pieces between the knots pi - w, pi, pi + w and
        2 pi - 2w, 2 pi, 2 pi + 2w, the panel half-width h (shape (4,)),
        the midpoints of its ``_POINT_PANELS`` equal panels (4, P) and, on
        each panel, the Legendre coefficients of b(mid + h t), t in
        [-1, 1], from its values at ``_POINT_NODES`` Gauss-Legendre nodes
        (4, P, n).  Built on the first call, with one ``bell_at`` call, and
        kept: the ramps are fixed when the evaluator is constructed, so
        the coefficients cannot go stale."""
        if self._point_rule is None:
            w = self.ramp_half_width
            lo = np.array([np.pi - w, np.pi, 2.0 * (np.pi - w), 2.0 * np.pi])
            hi = np.array([np.pi, np.pi + w, 2.0 * np.pi, 2.0 * (np.pi + w)])
            half = (hi - lo) / (2 * _POINT_PANELS)
            mid = lo[:, None] + (2 * np.arange(_POINT_PANELS) + 1) * half[:, None]
            t, wt = np.polynomial.legendre.leggauss(_POINT_NODES)
            vals = self.bell_at(mid[:, :, None] + half[:, None, None] * t)
            # discrete Legendre transform: exact for the degree n - 1
            # interpolant at the nodes
            coef = ((vals * wt) @ np.polynomial.legendre.legvander(t, _POINT_NODES - 1)
                    * (np.arange(_POINT_NODES) + 0.5))
            self._point_rule = (half, mid, coef)
        return self._point_rule


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

@dataclass
class LatticeSynthesis:
    """Samples of psi^(q) on the lattice x = j L / N with diagnostics; a
    paired synthesis carries the second order's samples in ``grid2``.

    ``imag_max`` is the imaginary residue: measured when the order is
    synthesized alone, and for a pair the larger of the two channels'
    Hermitian bounds.  ``l2_norm`` is computed for q = 0 only.
    """

    grid: GridFunction
    imag_max: float
    periodization_diff: float
    l2_norm: Optional[float]
    grid2: Optional[GridFunction] = None


def _row_count(N: int) -> int:
    """R, the number of rows ``_lattice_fft`` makes of an N-point transform:
    1, doubled while a row is longer than ``_ROW`` and N is a multiple of
    4R, so that R divides N/2.  It depends on N alone; R = 1, a plain FFT,
    where N <= 2^18."""
    R = 1
    while N // R > _ROW and N % (4 * R) == 0:
        R *= 2
    return R


def _roots(Q: int) -> np.ndarray:
    """e^{-2 pi i m / Q} for m = 0..Q-1, from the signed residue of m: the
    roots of m and Q - m are exact conjugates, and those on the axes exact."""
    m = np.arange(Q)
    m = np.where(2 * m > Q, m - Q, m)
    w = np.exp((-2j * np.pi / Q) * m)
    axis = 4 * m % Q == 0
    w[axis] = np.round(w[axis])
    return w


def _lattice_fft(band: np.ndarray, N: int) -> Iterator[Tuple[int, np.ndarray]]:
    """N-point DFT X_k = sum_j band[j] e^{-2 pi i j k / N} of samples at the
    centred indices j = -M..M (band has 2M + 1 entries) or j = -M..M-1
    (2M entries), as R rows of S = N / R points (``_row_count``), X_{Rs+r} =
    row r at s.  The rows come a group at a time: (r0, rows) has in rows[i]
    the row r = r0 + i, and the next group overwrites it.

    Decimated in time once (Cooley & Tukey 1965), in Bailey's four-step
    form (J. Supercomputing 4, 1990).  Write j = vS + t, with t in
    [-S/2, S/2), and place band[j] in slot t of the block Y_v, v taken mod
    R: the band is shorter than N, so no two samples share a slot.  Then

        row r at s = sum_t e^{-2 pi i t s / S} e^{-2 pi i t r / N}
                           sum_v e^{-2 pi i v r / R} Y_v[t]:

    each row is a sum over the blocks that hold a sample in its slots (the
    column pass), a twiddle and an S-point transform.  No N-point buffer is
    made, only the blocks and a group of rows.  At R = 1 the one row is the
    plain FFT.  t and v are signed, and the phases at j and -j are exact
    negatives, so a Hermitian band gives exactly Hermitian rows: a real
    channel's imaginary residue is the row transforms' own rounding.  The
    twiddle is a product of two short tables, at t's nearest multiple of
    B = gcd(S, 512) and at the rest.

    Each call transforms its rows on one thread.  Two workers saved about
    10 ms per 2^22-point transform, but kept 32 MB more resident after
    ``build_wavelet()``: the second thread's malloc arena keeps the 4-MiB
    row copies it frees.
    """
    R = _row_count(N)
    S = N // R
    M = len(band) // 2
    G = min(_GROUP, max(1, R // 2))
    block = lambda j: (j + S // 2) // S % R
    # spans of j inside one block and one period of j mod S, in ascending j,
    # that hold a sample
    spans = []
    start = -M
    while start < len(band) - M:
        stop = min(start + _CHUNK, len(band) - M,
                   start - start % S + S, start - (start + S // 2) % S + S)
        if band[start + M:stop + M].any():
            spans.append((start, stop))
        start = stop
    blocks = np.array(sorted({block(start) for start, _ in spans}), dtype=int)
    at = {v: i for i, v in enumerate(blocks.tolist())}
    Y = np.zeros((len(blocks), S), dtype=complex)
    # the blocks with a sample in each pass of _PASS slots
    live = np.zeros((len(blocks), -(-S // _PASS)), dtype=bool)
    for start, stop in spans:
        t = start % S
        Y[at[block(start)], t:t + stop - start] = band[start + M:stop + M]
        live[at[block(start)], t // _PASS:(t + stop - start - 1) // _PASS + 1] = True
    live = [np.flatnonzero(col) for col in live.T]
    roots = _roots(R)
    # t = base + l, base a multiple of B and l in [-B/2, B/2): a base for
    # each half of a cell of B slots
    B = math.gcd(S, 512)
    cells = np.arange(0, S, B)
    signed = lambda t: np.where(t < S - S // 2, t, t - S)
    bases = (signed(cells), signed(cells + B // 2) + (B - B // 2))
    offsets = np.arange(B)
    offsets = np.where(offsets < B // 2, offsets, offsets - B)
    rows = np.empty((G, S), dtype=complex)
    tmp, tw = np.empty((2, G, _PASS), dtype=complex)
    for r0 in range(0, R, G):
        r = np.arange(r0, r0 + G)[:, None]
        coef = roots[r * blocks % R]
        # row r = 0 has twiddle 1: the twiddled rows start at row i
        i = int(r0 == 0)
        halves = [np.exp((-2j * np.pi / N) * (r[i:] * b))[:, :, None] for b in bases]
        rest = np.exp((-2j * np.pi / N) * (r[i:] * offsets))[:, None, :]
        for s0, vs in zip(range(0, S, _PASS), live):
            s1 = min(s0 + _PASS, S)
            out, w = rows[:, s0:s1], s1 - s0
            if not len(vs):
                out[...] = 0.0
                continue
            np.multiply(coef[:, vs[0], None], Y[vs[0], s0:s1], out=out)
            for v in vs[1:]:
                np.multiply(coef[:, v, None], Y[v, s0:s1], out=tmp[:, :w])
                out += tmp[:, :w]
            if i < G:
                c = slice(s0 // B, s1 // B)
                cell = tw[i:, :w].reshape(G - i, -1, B)
                np.multiply(halves[0][:, c], rest[:, :, :B // 2], out=cell[:, :, :B // 2])
                np.multiply(halves[1][:, c], rest[:, :, B // 2:], out=cell[:, :, B // 2:])
                out[i:] *= tw[i:, :w]
        yield r0, scipy.fft.fft(rows, axis=-1, overwrite_x=True, workers=1)


def _centred(out: np.ndarray, r0: int, part: np.ndarray, scale: float) -> None:
    """Write scale times ``part``, rows r = r0, r0 + 1, ... of
    ``_lattice_fft``, into the real N-array ``out``, rolled so that k = 0
    sits at index N // 2, as ``np.fft.fftshift`` would.

    R divides N/2, so x_{Rs+r} goes to (Rs + r + N/2) mod N =
    R ((s + S/2) mod S) + r: the group is one strided (S, G) block of
    ``out`` viewed as (S, R), written as a transpose."""
    G, S = part.shape
    a = S // 2
    dst = out.reshape(S, -1)[:, r0:r0 + G]
    np.multiply(part[:, :S - a].T, scale, out=dst[a:])
    np.multiply(part[:, S - a:].T, scale, out=dst[:a])


def synthesize_psi_lattice(
    ph: BellEvaluator,
    L: float = 2.0 ** 18,
    N: int = 2 ** 22,
    check_periodization: bool = True,
    q: int = 0,
    q2: Optional[int] = None,
) -> LatticeSynthesis:
    """Inverse transform of psi^(q) onto the lattice {j L / N} via a
    zero-padded DFT; with ``q2`` set, psi^(q2) rides in the same transform.

    Sampling the spectrum at 2 pi / L computes the L-periodization psi_L of
    the wavelet.  The wraparound on the reporting range |x| <= L/4 is
    certified below 1e-13 against the 2L-periodization (a half-period
    reference would be dirtier than the synthesis itself).  Its samples at
    the same lattice points split by frequency parity into psi_L / 2 and
    an odd-frequency part: one N-point DFT of psi_hat^(q) at
    (j + 1/2) 2 pi / L, twiddled by e^{-i pi k / N}.  psi_2L - psi_L is
    therefore that part minus psi_L / 2, and no 2N-point synthesis is made.

    Every psi^(q) is real, so a pair is synthesized as psi^(q) + i c
    psi^(q2) (Sorensen et al., IEEE TASSP 1987), with c = 2^e the power of
    two that brings the q2 band to the magnitude of the q band: unbalanced,
    the smaller order would inherit the larger one's roundoff floor.  The
    imaginary channel is unscaled by 2^-e, exactly.

    The Hermitian spectrum must synthesize real, to 1e-12 of each channel's
    sup (at least 1).  Alone, the imaginary residue is measured; in a pair
    it cannot be, so each channel's band B must pass the Hermitian bound
    sum_j |B_j - conj(B_-j)| dxi / (4 pi), which bounds the residue the
    channel would have had alone.  The periodization check covers order q.

    The transform comes a group of short rows at a time (``_lattice_fft``):
    each real channel is written group by group into its centred N-array
    (``_centred``), the check compares each group of odd-frequency rows with
    psi, and ``l2_norm`` is summed once the transform's buffers are gone.
    """
    # resolve the bell across its support: at least 2^12 samples
    if (2.0 * ph.band[1]) / (2.0 * np.pi / L) < 2 ** 12:
        raise ResolutionError("frequency sampling too coarse across the band")

    dxi = 2.0 * np.pi / L
    M = ph.lattice_m(L)
    if 2 * M + 1 >= N:  # checked before the band is sampled
        raise ResolutionError("lattice too small for the spectral bandwidth")
    band = ph.lattice_band(L)
    # psi_hat_at's factor on the same samples: the FFT input is bit-identical
    # to sampling psi_hat^(q) directly
    xi = np.arange(-M, M + 1) * dxi
    bands = [(-1j * xi) ** p * band if p else band for p in (q, q2) if p is not None]
    del xi
    if q2 is None:
        spectrum = bands[0]
    else:
        residues = [float(np.sum(np.abs(b - np.conj(b[::-1])))) * (dxi / (4.0 * np.pi))
                    for b in bands]
        e = (np.frexp(np.max(np.abs(bands[0])))[1]
             - np.frexp(np.max(np.abs(bands[1])))[1])
        spectrum = bands[0] + 1j * (bands[1] * 2.0 ** e)
    del bands
    factor = dxi / (2.0 * np.pi)
    # centred: x = 0 at index N // 2
    channels = [np.empty(N) for p in (q, q2) if p is not None]
    imag = 0.0
    for r0, rows in _lattice_fft(spectrum, N):
        _centred(channels[0], r0, rows.real, factor)
        if q2 is None:
            imag = max(imag, float(abs_max(rows.imag)))
        else:
            _centred(channels[1], r0, rows.imag, factor * 2.0 ** -e)
    del spectrum, rows
    psi = channels[0]
    l2 = None
    if q2 is None:
        # scaling is monotone, so this is the sup of the scaled channel
        residues = [imag * factor]
        if q == 0:
            l2 = float(np.sqrt(np.sum(psi ** 2) * (L / N)))
    for p, r, v in zip((q, q2), residues, channels):
        scale = max(1.0, float(abs_max(v)))
        if r > 1e-12 * scale:
            raise ResolutionError(
                f"imaginary residue {r:.3e} of order {p} exceeds 1e-12 "
                f"relative to the synthesis scale {scale:.3e}"
            )

    per_diff = 0.0
    if check_periodization:
        per_diff = _periodization_diff(ph, L, N, q, psi)
        if per_diff > 1e-13:
            raise ResolutionError(
                f"periodization residual {per_diff:.3e} exceeds 1e-13"
            )

    grids = [GridFunction(x0=-L / 2.0, dx=L / N, values=v) for v in channels]
    return LatticeSynthesis(
        grid=grids[0], imag_max=max(residues), periodization_diff=per_diff,
        l2_norm=l2, grid2=grids[1] if q2 is not None else None,
    )


def _periodization_diff(ph: BellEvaluator, L: float, N: int, q: int,
                        psi: np.ndarray) -> float:
    """max over |k| <= N/4 of |odd part - psi_L / 2| (see
    ``synthesize_psi_lattice``), a group of odd-frequency rows r0, r0 + 1,
    ... at a time and in chunks of 2^16 points: no N-point array but psi."""
    dxi = 2.0 * np.pi / L
    H = N // 2
    M = ph.lattice_m(L)
    worst = 0.0
    for r0, rows in _lattice_fft(ph.psi_hat_at((np.arange(-M, M) + 0.5) * dxi, q), N):
        S = rows.shape[1]
        R = N // S
        # chunks of one sign of k and one row r: k = Rs + r (mod N) is then a
        # slice of the row, and psi[k + N/2] a strided slice
        for lo, hi in ((-(N // 4), 0), (0, N // 4 + 1)):
            for r, row in enumerate(rows, r0):
                first = lo + (r - lo) % R
                for start in range(first, hi, R * _CHUNK):
                    stop = min(start + R * _CHUNK, hi)
                    k = np.arange(start, stop, R)
                    s = (start - r) // R % S
                    part = row[s:s + len(k)] * np.exp(-1j * np.pi * k / N)
                    dev = (part.real * (dxi / (4.0 * np.pi))
                           - 0.5 * psi[start + H:stop + H:R])
                    worst = max(worst, float(abs_max(dev)))
    return worst


# eval_psi_point's rule: equal panels per ramp piece, and Gauss-Legendre
# nodes per panel.  The least pair whose interpolant meets b to 8e-15 on
# every panel (tests/test_bell.py); the rule's error is at most
# (1/pi) sum over panels of 2 h max|b - p|.
_POINT_PANELS = 6
_POINT_NODES = 10
_UNIT_POWERS = np.array([1.0, 1j, -1.0, -1j])  # i^k by k mod 4, exactly


def eval_psi_point(ph: BellEvaluator, x: float) -> float:
    """One wavelet value off the lattice, by a Filon-Legendre rule:

        psi(x) = (1/pi) Int b(xi) cos(u xi) d xi,   u = x - 1/2.

    On the flat part [alpha, beta] = [pi + w, 2 (pi - w)], where b = 1
    exactly, the integral is 2 cos(u (alpha + beta)/2) sin(u (beta - alpha)/2)
    / u, which is beta - alpha at u = 0 and cancels nothing at small u.  On
    each ramp panel b is replaced by its
    Legendre series sum_k c_k P_k(t) (``BellEvaluator.point_rule``), and
    Int_{-1}^{1} P_k(t) e^{i omega t} dt = 2 i^k j_k(omega) with j_k the
    spherical Bessel function, so the cosine is integrated exactly and the
    cost and the error bound are the same at every x.  Only |u| enters: the
    value is even in u bit for bit.
    """
    if not np.isfinite(x) or not np.isfinite((x - 0.5) * ph.band[1]):
        raise DomainError("evaluation point must be finite, with a finite phase")
    u = abs(x - 0.5)
    w = ph.ramp_half_width
    alpha, beta = np.pi + w, 2.0 * (np.pi - w)
    flat = beta - alpha
    if u:
        flat = 2.0 * np.cos(u * (0.5 * (alpha + beta))) * np.sin(u * (0.5 * flat)) / u
    half, mid, coef = ph.point_rule()
    k = np.arange(coef.shape[-1])
    moments = 2.0 * _UNIT_POWERS[k % 4] * spherical_jn(k, u * half[:, None])
    sums = np.einsum("pjk,pk->pj", coef, moments)
    ramps = np.sum(half[:, None] * (np.exp(1j * (u * mid)) * sums).real)
    return float((flat + ramps) / np.pi)


# ---------------------------------------------------------------------------
# Pipeline bundle
# ---------------------------------------------------------------------------

@dataclass
class WaveletBuild:
    """Everything the verification stages need, built in one shot, and no
    artifact's grid; the owner of the wavelet's derivative lattices
    (``lattices``) and of their moment fronts (``fronts``).

    The derivative lattices are synthesized two orders per transform,
    paired in the order a stage asks for them; whole lattices (N samples
    each) are not kept, only their fronts.
    """

    sigma: float
    ph: BellEvaluator
    synthesis: LatticeSynthesis
    L: float
    N: int
    # q -> moment front of the psi^(q) lattice
    _fronts: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False
    )

    def lattices(
        self, orders: Iterable[int], visit: Callable[[int, GridFunction], Any]
    ) -> list:
        """[visit(q, samples of psi^(q) on the lattice {j L / N}) for q in
        orders].  q = 0 is the certified synthesis; the other orders are
        synthesized with no periodization check, two per transform, paired
        in request order (an odd one out alone), and each pair is let go
        before the next is made unless ``visit`` keeps it.  The moment front
        of each lattice is kept."""
        orders = list(orders)
        out = []
        while orders:
            q = orders.pop(0)
            q2 = orders.pop(0) if q and orders and orders[0] else None
            if q == 0:
                made = [self.synthesis.grid]
            else:
                syn = synthesize_psi_lattice(
                    self.ph, L=self.L, N=self.N, check_periodization=False, q=q, q2=q2
                )
                made = [syn.grid] if q2 is None else [syn.grid, syn.grid2]
                del syn
            for p, grid in zip((q, q2), made):
                if p not in self._fronts:
                    self._fronts[p] = grid.moment_front()
                out.append(visit(p, grid))
            del made, grid
        return out

    def fronts(self, orders: Iterable[int]) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``moment_front()`` of the psi^(q) lattice for each q of
        ``orders``; the orders with no front yet are made by ``lattices``,
        paired in request order."""
        orders = list(orders)
        missing = [q for q in dict.fromkeys(orders) if q not in self._fronts]
        self.lattices(missing, lambda q, grid: None)
        return [self._fronts[q] for q in orders]


def build_wavelet(
    sigma: float = 2.0,
    a: float = np.pi / 6.0,
    L: float = 2.0 ** 18,
    N: int = 2 ** 22,
) -> WaveletBuild:
    """The wavelet alone: the bell evaluator and its certified synthesis.

    The ramps are those of one cone of the cutoff cascade, its widest
    factor a_1 = 1/4 (for sigma > 1.297, where N_1 = 1): deeper factors
    steepen the decay beyond what double precision can exhibit across the
    verification window, while the orthonormality structure is exact at
    any depth.  ``sigma`` is carried for the stages that read it; the
    wavelet does not depend on it.
    """
    ph = BellEvaluator(a)
    return WaveletBuild(
        sigma=sigma,
        ph=ph,
        synthesis=synthesize_psi_lattice(ph, L=L, N=N),
        L=L,
        N=N,
    )
