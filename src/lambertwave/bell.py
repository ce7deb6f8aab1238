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
ramps apart even at half-width a (pi + a < 2 (pi - a)).  The envelope,
the knots and the flat part are formed from a once, by ``BellEvaluator``
(``band``, ``support_end``, ``pieces``, ``flat``), and every other reader
takes them from it.  So ``bell_at``
evaluates the ramps and sines only at the samples where one varies
(``_ramp_samples``), 10.7% of the default lattice band, and gives every
other sample the formula's exact 1 or +0.  Nothing here depends on sigma,
so neither does the wavelet.

exp(i xi / 2) * b(xi) is then the Fourier transform of a real orthonormal
wavelet; synthesis inverts it with the convention
psi(x) = (1/2pi) Int b(xi) e^{i xi / 2} e^{-i x xi} d xi.  Every psi^(q) is
real, so one FFT synthesizes two derivative orders, one in its real part and
one in its imaginary part (``synthesize_psi_lattice`` with ``q2``), in the
fixed pairs of ``PAIRS`` (``WaveletBuild.lattices``).  N is a power of
two, the one rule of ``check_rows`` that the CLI's config check and the
synthesis share.  Each N-point transform is then made as
R = max(1, N / 2^18) rows of at most 2^18 points on one thread, one FFT
call per row (``_lattice_fft``), and consumed a few rows at a time: no
N-point complex buffer is made.  The periodization check compares each
group of rows with the block of psi it matches (``_periodization_diff``).

Off the lattice, ``eval_psi_point`` evaluates one value
psi(x) = (1/pi) Int b(xi) cos((x - 1/2) xi) d xi by a Filon-Legendre rule
(Filon 1928; Iserles & Norsett 2005): b is interpolated on nodes that do
not depend on x, and the cosine is integrated exactly, so a point costs the
same at every x.  The Gauss-Legendre tables depend on neither x nor a and
are made once per process by the one generator, ``_legendre_rule``: the
point rule's in Python floats on first use, and the 20-node table of the
spherical Bessel functions (``_moment_rule``) in longdouble at import,
about 1 ms.  The interpolant depends on a alone and is made once per
evaluator (``BellEvaluator.point_rule``), so a point does only the work
that depends on x.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import DomainError, ResolutionError
from .grids import GridFunction, abs_max

HALF_PI = np.pi / 2.0
_CHUNK = 2 ** 16  # points per chunk of the periodization check
_ROW = 2 ** 18  # longest transform row (4 MiB of complex values)
_GROUP = 4  # rows per transform call
_PASS = 2 ** 12  # row slots per pass of the row assembly, a multiple of 512
_SUPPORT_SAMPLES = 2 ** 12  # fewest frequency samples across b's support
_IMAG_TOL = 1e-12  # largest imaginary residue of a synthesized order, relative to max(1, sup)
_PERIODIZATION_TOL = 1e-13  # largest periodization residual against the 2L lattice


def _ramp(v, w: float) -> np.ndarray:
    """(pi/2) C(v / w), C the CDF of the unit triangle: (1 + t)^2 / 2 for
    t <= 0 and 1 - (1 - t)^2 / 2 above, with t clamped to [-1, 1].  Both
    halves share h = (1 - |t|)^2 / 2, so ramp(v) + ramp(-v) is pi/2 up to
    one rounding."""
    t = np.clip(np.asarray(v, dtype=float) / w, -1.0, 1.0)
    h = 0.5 * (1.0 - np.abs(t)) ** 2
    return HALF_PI * np.where(t > 0.0, 1.0 - h, h)


def _ramp_samples(u: np.ndarray, w: float) -> Tuple[np.ndarray, np.ndarray]:
    """For u = |xi| (1-D), the indices of the samples where a ramp of the
    bell varies, |fl(u - pi)| < w or |fl(2 pi - u)| < 2w (or u is NaN), and
    the mask of the flat part, fl(u - pi) >= w and fl(2 pi - u) >= 2w."""
    v = u - np.pi
    flat = v >= w
    clamped = np.abs(v, out=v) >= w
    np.subtract(2.0 * np.pi, u, out=v)
    flat &= v >= 2.0 * w
    clamped &= np.abs(v, out=v) >= 2.0 * w
    return np.flatnonzero(~clamped), flat


def _derivative_factor(xi: np.ndarray, q: int, z: np.ndarray) -> np.ndarray:
    """(-i xi)^q z, as i^{-q} xi^q z in real arithmetic.

    xi^q is formed by binary powering from 1, the repeated squaring of
    numpy's integer complex power (``npy_cpow``): every partial product of
    the complex -i xi has one exactly zero part, so its other part is the
    same real product, and the result equals ``(-1j * xi) ** q * z`` in
    value."""
    turn = q % 4
    p, sq = 1.0, xi
    while q:
        if q & 1:
            p = p * sq
        q >>= 1
        if q:
            sq = sq * sq
    # i^{-turn} z: the parts swap at an odd turn, and i^{-1} = -i
    out = np.empty_like(z)
    re, im = (z.imag, z.real) if turn % 2 else (z.real, z.imag)
    np.multiply(p, re, out=out.real)
    np.multiply(p, im, out=out.imag)
    if turn in (1, 2):
        np.negative(out.imag, out=out.imag)
    if turn in (2, 3):
        np.negative(out.real, out=out.real)
    return out


class BellEvaluator:
    """The wavelet: point evaluator for the bell (real, even) and for the
    transforms of the wavelet's members and their derivatives, at a
    half-width a in (0, pi/3).

    ``ramp_half_width`` (w = a/4) is the half-width of theta_a's cutoff:
    the bell's knots sit at pi +- w, pi, 2 pi +- 2w and 2 pi, and w is the
    closest separation of its ramp frequencies, which sets the beat period.

    ``band`` = (pi - a, 2 (pi + a)) is the admissible envelope, not the
    support of b: b is exactly 0 for |xi| <= pi - w and for
    |xi| >= ``support_end`` = 2 (pi + w), and a quarter of the Gram and
    completeness quadrature nodes fall where b = 0.  The envelope sets the grid of
    ``psi_hat.csv`` and the quadrature ranges, and
    ``wavelet_manifest.json`` writes it as ``support``.  b's support sets
    M of ``lattice_band`` (``lattice_m``) and the synthesis's resolution
    guard: 273,069 at the defaults, where
    the envelope would give 305,837.

    ``pieces`` = (lo, hi) holds the ends of the four ramp pieces between
    the knots, (pi - w, pi), (pi, pi + w), (2 (pi - w), 2 pi) and
    (2 pi, 2 (pi + w)), each a (4,) array, and ``flat`` = (pi + w,
    2 (pi - w)) the flat part, where b = 1.  These four, ``band`` and
    ``support_end`` are formed from a here alone; every other reader takes
    them from the evaluator.
    """

    def __init__(self, a: float):
        if not (0.0 < a / 4.0 and a < np.pi / 3.0):  # w = a/4 must not underflow
            raise DomainError(f"half-width a must lie in (0, pi/3), with a/4 > 0, got {a}")
        self.a = a
        self.band = (np.pi - a, 2.0 * (np.pi + a))
        w = self.ramp_half_width = a / 4.0
        self.support_end = 2.0 * (np.pi + w)
        self.pieces = (np.array([np.pi - w, np.pi, 2.0 * (np.pi - w), 2.0 * np.pi]),
                       np.array([np.pi, np.pi + w, 2.0 * np.pi, 2.0 * (np.pi + w)]))
        self.flat = (np.pi + w, 2.0 * (np.pi - w))
        self._lattice_band = None  # (L, psi_hat at the frequencies of L)
        self._point_rule = None  # eval_psi_point's panels, coefficients and weights

    def theta_a(self, v):
        return _ramp(v, self.ramp_half_width)

    def theta_2a(self, v):
        return _ramp(v, 2.0 * self.ramp_half_width)

    def bell_at(self, xi):
        """b(xi) = sin(theta_a(|xi| - pi)) sin(theta_2a(2 pi - |xi|)), of
        the shape of xi (a float for a 0-d xi).

        cos(theta_2a(v)) = sin(theta_2a(-v)), and each ramp is clamped to
        exactly 0 or pi/2 where |v| is at least its half-width, so b varies
        only where |fl(|xi| - pi)| < w or |fl(2 pi - |xi|)| < 2w.  The ramps
        and sines are evaluated at those samples alone; every other sample
        is the formula's exact value there, 1.0 on the flat part and +0.0
        off the support.  A NaN clamps neither ramp, so it stays NaN.
        """
        xi = np.asarray(xi, dtype=float)
        u = np.abs(xi.ravel())
        ramp, flat = _ramp_samples(u, self.ramp_half_width)
        r = u[ramp]
        # u becomes b: the clamped value, 1 or +0, then the ramps' samples
        np.copyto(u, flat)
        u[ramp] = np.sin(self.theta_a(r - np.pi)) * np.sin(self.theta_2a(2.0 * np.pi - r))
        return u.reshape(xi.shape) if xi.ndim else u[0]

    def psi_hat_at(self, xi, q: int = 0, m: int = 0, n: int = 0):
        """Transform of the q-th derivative of the member 2^{m/2} psi(2^m x - n):

            xi -> (-i xi)^q 2^{-m/2} e^{i 2^{-m} n xi} psi_hat(2^{-m} xi),

        with psi_hat(u) = e^{i u/2} b(u).  Exact for the band-limited
        spectrum; |m| > 30 (overflow guard) and q outside [0, 40] are rejected.
        e^{i u/2} is formed in place and b multiplied into it, so a band
        costs one complex array beside b; (-i xi)^q is applied in real
        arithmetic (``_derivative_factor``), equal in value to numpy's
        complex power.
        """
        if abs(m) > 30:
            raise DomainError(f"scale |m| > 30 rejected (overflow guard), got {m}")
        if q < 0 or q > 40:
            raise DomainError(f"derivative order must be in [0, 40], got {q}")
        xi = np.asarray(xi, dtype=float)
        u = 2.0 ** (-m) * xi if m else xi
        # e^{i u/2} b(u), formed in place once b is made
        b = self.bell_at(u)
        out = np.multiply(0.5j, u, out=np.empty(xi.shape, dtype=complex))
        np.exp(out, out=out)
        out *= b
        del b
        # the factors skipped below are exactly 1, but a complex product with
        # them can flip the signed zeros off the band that psi_hat.csv records
        if m or n:
            out = 2.0 ** (-m / 2.0) * np.exp(1j * n * u) * out
        if q:
            out = _derivative_factor(xi, q, out)
        return out if out.ndim else out[()]

    def lattice_m(self, L: float) -> int:
        """M of ``lattice_band(L)``: two steps of 2 pi / L past
        ``support_end``, the end of b's support."""
        return int(np.ceil(self.support_end / (2.0 * np.pi / L))) + 2

    def lattice_band(self, L: float) -> np.ndarray:
        """psi_hat at the frequencies j 2 pi / L, j = -M..M (``lattice_m``).
        Sampled once per period: the samples of the last L asked for are
        kept.  Like ``point_rule``'s, they cannot go stale: the ramps are
        fixed when the evaluator is constructed."""
        if self._lattice_band is None or self._lattice_band[0] != L:
            M, dxi = self.lattice_m(L), 2.0 * np.pi / L
            self._lattice_band = (L, self.psi_hat_at(np.arange(-M, M + 1) * dxi))
        return self._lattice_band[1]

    def point_rule(self) -> Tuple[np.ndarray, ...]:
        """The x-independent data of ``eval_psi_point``: for each of the
        four ramp pieces of ``pieces``, between the knots pi - w, pi, pi + w
        and 2 pi - 2w, 2 pi, 2 pi + 2w, the panel half-width h (shape (4,)),
        the midpoints of its ``_POINT_PANELS`` equal panels (4, P) and, on
        each panel, the Legendre coefficients c_k of b(mid + h t), t in
        [-1, 1], from its values at ``_POINT_NODES`` Gauss-Legendre nodes
        (4, P, n); then, as ``eval_psi_point`` reads them, the Filon weights
        h 2 i^k c_k (4, P, n, complex) and the phases -i mid (4, P).
        Built on the first call, with one ``bell_at`` call and one product
        with the discrete Legendre transform of ``_legendre_rule`` (made
        once per process), and kept: the ramps are fixed when the evaluator
        is constructed, so the coefficients cannot go stale."""
        if self._point_rule is None:
            lo, hi = self.pieces
            half = (hi - lo) / (2 * _POINT_PANELS)
            mid = lo[:, None] + (2 * np.arange(_POINT_PANELS) + 1) * half[:, None]
            t, transform, unit = _legendre_rule(_POINT_NODES)
            coef = self.bell_at(mid[:, :, None] + half[:, None, None] * t) @ transform
            self._point_rule = (half, mid, coef, half[:, None, None] * coef * unit, -1j * mid)
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
    Hermitian bounds.  ``l2_norm`` is computed for q = 0 only.  ``grid``
    is None in a ``WaveletBuild`` whose psi lattice ``release_psi`` has
    let go.
    """

    grid: Optional[GridFunction]
    imag_max: float
    periodization_diff: float
    l2_norm: Optional[float]
    grid2: Optional[GridFunction] = None


def _row_count(N: int) -> int:
    """R, the number of rows ``_lattice_fft`` makes of an N-point transform,
    N a power of two (``check_rows``): rows of ``_ROW`` points, or one row,
    a plain FFT, where N <= 2^18.  So R is a power of two dividing N/4
    wherever R > 1."""
    return max(1, N // _ROW)


def check_rows(N: int) -> None:
    """DomainError unless N is a power of two, the only lattice size
    ``_lattice_fft`` transforms: its rows (``_row_count``) are then at most
    ``_ROW`` points, and their count divides N/4 wherever it is above 1."""
    if N < 1 or N & (N - 1):
        raise DomainError(f"the lattice size must be a power of two, so that the transform's "
                          f"rows are at most 2^18 points; got N = {N}")


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
    row r at s.  N is a power of two (``check_rows``) longer than the band,
    and S a multiple of ``_PASS``.  The rows come a group at a time:
    (r0, rows) has in rows[i] the row r = r0 + i, and the next group
    overwrites it.

    Decimated in time once (Cooley & Tukey 1965), in Bailey's four-step
    form (J. Supercomputing 4, 1990).  Write j = vS + t, with t in
    [-S/2, S/2), and place band[j] in slot t of the block Y_v, v taken mod
    R: the band is shorter than N, so no two samples share a slot.  Then

        row r at s = sum_t e^{-2 pi i t s / S} e^{-2 pi i t r / N}
                           sum_v e^{-2 pi i v r / R} Y_v[t]:

    each row is a sum over the blocks with a nonzero sample in its slots
    (the column pass, ``_PASS`` slots at a time), a twiddle and an S-point
    transform.  No N-point buffer is made, only the blocks that hold a
    sample and a group of rows.  At R = 1 the one row is the plain FFT.
    t and v are signed, and the phases at j and -j are exact negatives, so
    a Hermitian band gives exactly Hermitian rows: a real channel's
    imaginary residue is the row transforms' own rounding.  The twiddle is
    a product of two short tables, at t's nearest multiple of B = 512 and
    at the rest.

    Each row is transformed in place by its own ``np.fft.fft`` call (numpy's
    pocketfft, one thread), bit for bit what scipy's pocketfft gave: a
    call on the whole group makes a larger scratch at S = 2^18, for the
    same rows.  The band is let go once its samples are placed in the
    blocks, so a caller that drops its own reference frees it before the
    first row is made.
    """
    R = _row_count(N)
    S = N // R
    H = S // 2
    M = len(band) // 2
    G = min(_GROUP, max(1, R // 2))
    # the half-blocks h = floor(j / H) that hold a sample: j is in the block
    # of v = (h + 1) // 2, at slot j mod S
    held = range(-M // H, (len(band) - M - 1) // H + 1)
    blocks = sorted({(h + 1) // 2 % R for h in held})
    Y = np.zeros((len(blocks), S), dtype=complex)
    for h in held:
        lo, hi = max(h * H, -M), min(h * H + H, len(band) - M)
        Y[blocks.index((h + 1) // 2 % R), lo % S:lo % S + hi - lo] = band[lo + M:hi + M]
    del band
    blocks = np.array(blocks)
    # the blocks with a nonzero sample in each pass of _PASS slots
    live = Y.reshape(len(blocks), S // _PASS, _PASS).any(axis=2)
    live = [np.flatnonzero(col) for col in live.T]
    roots = _roots(R)
    # t = base + l, base a multiple of B and l in [-B/2, B/2): a base for
    # each half of a cell of B slots
    B = 512
    cells = np.arange(0, S, B)
    signed = lambda t: np.where(t < S // 2, t, t - S)
    bases = (signed(cells), signed(cells + B // 2) + B // 2)
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
            out = rows[:, s0:s0 + _PASS]
            if not len(vs):
                out[...] = 0.0
                continue
            np.multiply(coef[:, vs[0], None], Y[vs[0], s0:s0 + _PASS], out=out)
            for v in vs[1:]:
                np.multiply(coef[:, v, None], Y[v, s0:s0 + _PASS], out=tmp)
                out += tmp
            if i < G:
                c = slice(s0 // B, (s0 + _PASS) // B)
                cell = tw[i:].reshape(G - i, -1, B)
                np.multiply(halves[0][:, c], rest[:, :, :B // 2], out=cell[:, :, :B // 2])
                np.multiply(halves[1][:, c], rest[:, :, B // 2:], out=cell[:, :, B // 2:])
                out[i:] *= tw[i:]
        for j in range(G):
            np.fft.fft(rows[j], out=rows[j])
        yield r0, rows


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
    L: float,
    N: int,
    check_periodization: bool = True,
    q: int = 0,
    q2: Optional[int] = None,
) -> LatticeSynthesis:
    """Inverse transform of psi^(q) onto the lattice {j L / N} via a
    zero-padded DFT; with ``q2`` set, psi^(q2) rides in the same transform.

    Sampling the spectrum at 2 pi / L computes the L-periodization psi_L of
    the wavelet.  The wraparound on the reporting range |x| <= L/4 is
    certified below ``_PERIODIZATION_TOL`` (1e-13) against the
    2L-periodization (a half-period reference would be dirtier than the
    synthesis itself).  Its samples at
    the same lattice points split by frequency parity into psi_L / 2 and
    an odd-frequency part: one N-point DFT of psi_hat^(q) at
    (j + 1/2) 2 pi / L, twiddled by e^{-i pi k / N}.  psi_2L - psi_L is
    therefore that part minus psi_L / 2, and no 2N-point synthesis is made.

    Every psi^(q) is real, so a pair is synthesized as psi^(q) + i c
    psi^(q2) (Sorensen et al., IEEE TASSP 1987), with c = 2^e the power of
    two that brings the q2 band to the magnitude of the q band: unbalanced,
    the smaller order would inherit the larger one's roundoff floor.  The
    imaginary channel is unscaled by 2^-e, exactly.

    The Hermitian spectrum must synthesize real, to ``_IMAG_TOL`` (1e-12) of
    each channel's sup (at least 1).  Alone, the imaginary residue is
    measured; in a pair it cannot be, so each channel's band B must pass
    the Hermitian bound sum_j |B_j - conj(B_-j)| dxi / (4 pi), which bounds
    the residue the channel would have had alone.  The periodization check
    covers order q.

    The transform comes a group of short rows at a time (``_lattice_fft``):
    each real channel is written group by group into its centred N-array
    (``_centred``), the check compares each group of odd-frequency rows with
    psi, and ``l2_norm`` is summed once the transform's buffers are gone.
    """
    dxi = 2.0 * np.pi / L
    # resolve the bell across its support, the span lattice_m samples
    if 2.0 * ph.support_end / dxi < _SUPPORT_SAMPLES:
        raise ResolutionError("frequency sampling too coarse across the band")

    M = ph.lattice_m(L)
    if 2 * M + 1 >= N:  # checked before the band is sampled
        raise ResolutionError("lattice too small for the spectral bandwidth")
    check_rows(N)
    band = ph.lattice_band(L)
    # psi_hat_at's factor on the same samples: the FFT input is bit-identical
    # to sampling psi_hat^(q) directly
    xi = np.arange(-M, M + 1) * dxi if q or q2 else None
    bands = [_derivative_factor(xi, p, band) if p else band for p in (q, q2) if p is not None]
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
    transform = _lattice_fft(spectrum, N)
    del spectrum
    for r0, rows in transform:
        _centred(channels[0], r0, rows.real, factor)
        if q2 is None:
            imag = max(imag, float(abs_max(rows.imag)))
        else:
            _centred(channels[1], r0, rows.imag, factor * 2.0 ** -e)
    del transform, rows
    psi = channels[0]
    grids = [GridFunction(x0=-L / 2.0, dx=L / N, values=v) for v in channels]
    l2 = None
    if q2 is None:
        # scaling is monotone, so this is the sup of the scaled channel
        residues = [imag * factor]
        if q == 0:
            l2 = float(np.sqrt(np.sum(psi ** 2) * (L / N)))
    for p, r, grid in zip((q, q2), residues, grids):
        scale = max(1.0, grid.sup())
        if r > _IMAG_TOL * scale:
            raise ResolutionError(
                f"imaginary residue {r:.3e} of order {p} exceeds {_IMAG_TOL:.0e} "
                f"relative to the synthesis scale {scale:.3e}"
            )

    per_diff = 0.0
    if check_periodization:
        per_diff = _periodization_diff(ph, L, N, q, psi)
        if per_diff > _PERIODIZATION_TOL:
            raise ResolutionError(
                f"periodization residual {per_diff:.3e} exceeds {_PERIODIZATION_TOL:.0e}"
            )

    return LatticeSynthesis(
        grid=grids[0], imag_max=max(residues), periodization_diff=per_diff,
        l2_norm=l2, grid2=grids[1] if q2 is not None else None,
    )


def _periodization_diff(ph: BellEvaluator, L: float, N: int, q: int,
                        psi: np.ndarray) -> float:
    """max over |k| <= N/4 of |odd part - psi_L / 2| (see
    ``synthesize_psi_lattice``), a group of odd-frequency rows r0, r0 + 1,
    ... at a time: no N-point array but psi.

    Write k = Rs + r with s signed: the odd part at k is row r at slot
    s mod S, twiddled by e^{-i pi k / N} = e^{-i pi r / N} T[s], with
    T[s] = e^{-i pi s / S} one table for every row, and it is compared with
    psi[k + N/2], row s + S/2 of psi viewed as (S, R), column r.  A group of
    G rows is so compared with one (slots, G) block of that view, in chunks
    of ``_CHUNK`` / G slots.  R divides N/4 (``check_rows``), so with
    Q = N / 4R every row's range of s over |k| <= N/4 is [-Q, Q - 1], and
    row 0 has s = Q too: that slot is left out of the other rows."""
    dxi = 2.0 * np.pi / L
    M = ph.lattice_m(L)
    R = _row_count(N)
    S = N // R
    Q = S // 4
    cols = psi.reshape(S, R)
    T = np.exp((-1j * np.pi / S) * np.arange(-Q, Q + 1))
    row_tw = np.exp((-1j * np.pi / N) * np.arange(R))[:, None]
    # 2 dev, exactly: (2c) p - psi is the double of c p - psi / 2
    c2 = dxi / (2.0 * np.pi)
    worst = 0.0
    for r0, rows in _lattice_fft(ph.psi_hat_at((np.arange(-M, M) + 0.5) * dxi, q), N):
        G = len(rows)
        g = slice(r0, r0 + G)
        step = _CHUNK // G
        # chunks of one sign of s: a slice of the rows
        for a, b in ((-Q, 0), (0, Q + 1)):
            for s0 in range(a, b, step):
                s1 = min(s0 + step, b)
                u = s0 % S
                part = row_tw[g] * T[s0 + Q:s1 + Q]
                part *= rows[:, u:u + s1 - s0]
                dev = part.real.T * c2
                dev -= cols[s0 + S // 2:s1 + S // 2, g]
                if s1 == Q + 1:
                    dev[-1, int(r0 == 0):] = 0.0
                worst = max(worst, float(abs_max(dev)))
    return 0.5 * worst


# eval_psi_point's rule: equal panels per ramp piece, and Gauss-Legendre
# nodes per panel.  The least pair whose interpolant meets b to 8e-15 on
# every panel (tests/test_bell.py); the rule's error is at most
# (1/pi) sum over panels of 2 h max|b - p|.
_POINT_PANELS = 6
_POINT_NODES = 10
# _spherical_j's split: a Gauss-Legendre rule of _MOMENT_NODES nodes up to
# omega = _MOMENT_CUT, the upward recurrence above it
_MOMENT_NODES = 20
_MOMENT_CUT = 8.0


@functools.cache
def _legendre_rule(n: int, dtype=float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes t (ascending), the discrete Legendre
    transform D (n, n) and the factors 2 i^k (k < n, complex, exact): the
    values v of a polynomial of degree n - 1 at t have Legendre coefficients
    v @ D, with D = w_i P_k(t_i) (k + 1/2).  t and D are of ``dtype``,
    float for the point rule and numpy's longdouble for ``_moment_rule``.
    Made on first use, once per process, node count and dtype.

    Each positive node is Newton's iteration on P_n from
    cos(pi (i + 3/4) / (n + 1/2)), with P_k from the three-term recurrence,
    on scalars of ``dtype`` (Python floats for float); the negative nodes
    are their mirror images.  The weight w = 2 / ((1 - t^2) P_n'(t)^2)
    takes P_n' = n (P_{n-1} - t P_n) / (1 - t^2) with the residual P_n(t)
    of the rounded node kept: at n = 10 D is then within 1.2e-15 of
    40-digit values (of its largest entry), against 7.5e-15 from
    w = 2 (1 - t^2) / (n P_{n-1}(t))^2 and 1.0e-15 from ``leggauss`` and
    ``legvander``, which take 3 to 5 times as long."""

    def legendre(x) -> list:  # P_0(x) .. P_n(x)
        p = [1.0, x]
        for k in range(1, n):
            p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
        return p

    positive = []
    for i in range(n // 2):
        x, dx = dtype(math.cos(math.pi * (i + 0.75) / (n + 0.5))), 1.0
        while abs(dx) > 1e-12:  # quadratic: the last step leaves an ulp
            p = legendre(x)
            dx = p[n] * (1.0 - x * x) / (n * (p[n - 1] - x * p[n]))
            x -= dx
        positive.append(x)
    t = [-x for x in positive] + [0.0] * (n % 2) + positive[::-1]
    transform = []
    for x in t:
        p = legendre(x)
        w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (p[n - 1] - x * p[n])) ** 2
        transform.append([w * p[k] * (k + 0.5) for k in range(n)])
    k = np.arange(n)
    return (np.array(t, dtype=dtype), np.array(transform, dtype=dtype),
            2.0 * np.array([1.0, 1j, -1.0, -1j])[k % 4])


def _moment_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """i t for the n-point Gauss-Legendre rule's positive nodes t (n even),
    and the table T (K = ``_POINT_NODES`` columns) with j_k(omega) =
    [cos(omega t_0), sin(omega t_0), cos(omega t_1), ...] @ T: row 2i
    holds +-w_i P_k(t_i) for even k and row 2i + 1 for odd k, the sign that
    of i^{-k} or i^{1-k}, and the rest are 0.  The nodes and w_i P_k(t_i)
    are ``_legendre_rule``'s in numpy's longdouble (80-bit on x86-64),
    rounded to double once: each entry is within half an ulp of its
    40-digit value (0.509 at worst, longdouble's own error), and j_k errs
    by 3.2e-16 on [0, 8].  Where longdouble is double, the table has the
    float rule's rounding error, and j_k errs by 6.2e-16."""
    t, transform, _ = _legendre_rule(n, np.longdouble)
    k = np.arange(_POINT_NODES)
    table = (transform[n // 2:, :_POINT_NODES] / (k + 0.5)).astype(float)
    table *= np.array([1.0, 1.0, -1.0, -1.0])[k % 4]
    pairs = np.stack([np.where(k % 2, 0.0, table), np.where(k % 2, table, 0.0)], axis=1)
    return 1j * t[n // 2:].astype(float), pairs.reshape(n, _POINT_NODES)


_MOMENT_IT, _MOMENT_TABLE = _moment_rule(_MOMENT_NODES)


def _spherical_j(omega: np.ndarray) -> np.ndarray:
    """j_k(omega), the spherical Bessel functions of order k <
    ``_POINT_NODES``, for a 1-D omega >= 0; shape (len(omega), K).

    j_k(omega) = (1 / 2 i^k) Int_{-1}^{1} P_k(t) e^{i omega t} dt.  Up to
    ``_MOMENT_CUT`` that integral is taken by ``_moment_rule``'s
    ``_MOMENT_NODES``-point rule: e^{i omega t}, read as (cos, sin) pairs,
    times its table, one matrix product.  Above it j_k comes from the
    upward recurrence j_{k+1} = (2k + 1) j_k / omega - j_{k-1} from
    j_0 = sin(omega) / omega and j_1 = (j_0 - cos(omega)) / omega, stable
    while k < omega, on Python floats one omega at a time:
    ``eval_psi_point`` asks for four, where numpy's cost per call would
    outweigh the arithmetic.  Against 40-digit values (mpmath), on 80,001
    omega in [0, 8] for the rule and 5,600 in [4, 3e3] for the recurrence,
    the largest error of any j_k was:

        rule, omega <= 8:   3.2e-16 at 20 nodes; 2.7e-13 at 18
        recurrence, > 8:    1.7e-16; 7.1e-16 above 6, 1.4e-14 above 4

    so the split errs by at most 3.2e-16, with 20 nodes the least that
    reaches omega = 8.  The rule's error peaks at small omega in j_0, where
    the 10 nonzero products of its sum round.  scipy's ``spherical_jn``
    errs by up to 5.1e-16.
    """
    out = np.empty((len(omega), _POINT_NODES))
    low = omega <= _MOMENT_CUT
    if low.any():
        out[low] = np.exp(np.multiply.outer(omega[low], _MOMENT_IT)).view(float) @ _MOMENT_TABLE
    high = np.flatnonzero(~low)
    for i, om in zip(high.tolist(), omega[high].tolist()):
        j = [math.sin(om) / om]
        j.append((j[0] - math.cos(om)) / om)
        for k in range(1, _POINT_NODES - 1):
            j.append((2 * k + 1) / om * j[k] - j[k - 1])
        out[i] = j
    return out


def eval_psi_point(ph: BellEvaluator, x: float) -> float:
    """One wavelet value off the lattice, by a Filon-Legendre rule:

        psi(x) = (1/pi) Int b(xi) cos(u xi) d xi,   u = x - 1/2.

    On the flat part [alpha, beta] = [pi + w, 2 (pi - w)], where b = 1
    exactly, the integral is 2 cos(u (alpha + beta)/2) sin(u (beta - alpha)/2)
    / u, which is beta - alpha at u = 0 and cancels nothing at small u.  On
    each ramp panel b is replaced by its
    Legendre series sum_k c_k P_k(t) (``BellEvaluator.point_rule``), and
    Int_{-1}^{1} P_k(t) e^{i omega t} dt = 2 i^k j_k(omega) with j_k the
    spherical Bessel function (``_spherical_j``, within 3.2e-16), so the
    cosine is integrated exactly and the
    cost and the error bound are the same at every x.  Only |u| enters: the
    value is even in u bit for bit.

    Everything but u is in the evaluator's tables (``point_rule``), so a
    point is the flat part on Python floats, the j_k at the four omega =
    u h, the panel sums as one product with the Filon weights h 2 i^k c_k,
    and the ramps as one reduction against e^{i u mid}.
    """
    u = abs(float(x) - 0.5)
    if not math.isfinite(u * ph.band[1]):
        raise DomainError("evaluation point must be finite, with a finite phase")
    alpha, beta = ph.flat
    flat = beta - alpha
    if u:
        flat = 2.0 * math.cos(u * (0.5 * (alpha + beta))) * math.sin(u * (0.5 * flat)) / u
    half, _, _, weights, phases = ph.point_rule()
    sums = weights @ _spherical_j(u * half)[:, :, None]
    # vdot conjugates its first factor: e^{-i u mid} gives back e^{i u mid}
    ramps = np.vdot(np.exp(u * phases), sums).real
    return float((flat + ramps) / math.pi)


# ---------------------------------------------------------------------------
# Pipeline bundle
# ---------------------------------------------------------------------------

# The derivative orders of psi made per transform, in the order they are
# made: (1, 2) and (4, 8) are the decay fit's orders, and (3, 5) and (6, 7)
# the rest of the mixed audit's.  Each command makes the pairs that hold
# an order it reads, so one order's lattice is the same in every command.
PAIRS = ((1, 2), (4, 8), (3, 5), (6, 7))


@dataclass
class WaveletBuild:
    """Everything the verification stages need, built in one shot, and no
    artifact's grid; the owner of the wavelet's lattices (``lattices``) and
    of their moment fronts (``fronts``).

    psi's own lattice is the certified synthesis, ``synthesis.grid``, kept
    from the build until ``release_psi`` lets it go; its moment front is
    kept after that.  The derivative lattices are synthesized two orders
    per transform, in the pairs of ``PAIRS`` and in its order, whatever
    order a stage asks for them in; whole derivative lattices (N samples
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
        orders], each order one of ``PAIRS``; any other order, psi's 0
        among them, raises DomainError.  Each pair that holds a requested
        order is synthesized once, in table order, as one transform (its
        first order in the real part, its second in the imaginary part)
        with no periodization check, and let go before the next is made
        unless ``visit`` keeps it.  ``visit`` sees the requested orders
        only, but the moment fronts of both channels are kept."""
        orders = list(orders)
        unknown = sorted(set(orders).difference(*PAIRS))
        if unknown:
            raise DomainError(f"derivative orders {unknown} are in none of the pairs {PAIRS}")
        seen = {}
        for pair in PAIRS:
            if not set(pair) & set(orders):
                continue
            syn = synthesize_psi_lattice(self.ph, L=self.L, N=self.N,
                                         check_periodization=False, q=pair[0], q2=pair[1])
            for q, grid in zip(pair, (syn.grid, syn.grid2)):
                if q not in self._fronts:
                    self._fronts[q] = grid.moment_front()
                if q in orders:
                    seen[q] = visit(q, grid)
            del syn, grid
        return [seen[q] for q in orders]

    def fronts(self, orders: Iterable[int]) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``moment_front()`` of the psi^(q) lattice for each q of
        ``orders``.  psi's is taken from ``synthesis.grid``, or is the one
        ``release_psi`` kept; the derivative orders with no front yet are
        made by ``lattices``, in the pairs of ``PAIRS``."""
        orders = list(orders)
        if 0 in orders and 0 not in self._fronts:
            self._fronts[0] = self.synthesis.grid.moment_front()
        self.lattices([q for q in dict.fromkeys(orders) if q not in self._fronts],
                      lambda q, grid: None)
        return [self._fronts[q] for q in orders]

    def release_psi(self) -> None:
        """Let psi's N-sample lattice go, keeping its moment front: after
        this ``synthesis.grid`` is None, the rest of ``synthesis`` (its
        residues and norm) stays, and ``fronts`` still gives order 0.  A
        second call does nothing.  The lattice is freed if the caller holds
        no reference of its own, so a derivative pair made after this does
        not sit beside it."""
        if self.synthesis.grid is not None:
            self.fronts([0])
            self.synthesis = replace(self.synthesis, grid=None)


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
