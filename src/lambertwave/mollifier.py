"""Compactly supported cutoff built as a truncated convolution cascade of
scaled unit cones, with full provenance and per-derivative analytic bounds.

The cascade scales a_p follow the double-indexed block rule: within block m
(thresholds N_m <= p < N_{m+1}),

    a_p = (2 (p + 1)) ** (-(1/m) * p**(sigma - 1)),

where N_m is the smallest index whose block tail sums below 2^-m.  Every
factor is the unit cone (1 - |t|)_+ dilated to half-width a_p at unit mass;
the infinite cascade is C^infinity, and the retained-scale product of the
cone's first-derivative L1 norms yields certified sup bounds on each
derivative of the result.  The truncation keeps every a_p at or above the
cutoff, so each discarded factor is narrower than the cutoff.

A cascade's transform is the product of its factors' transforms, so the
cascade is built as one spectral product on the grid's period.  Most deep
factors are a few cells wide: those are convolved directly into one running
kernel, which joins the product as a single factor, so a deep cascade costs
a few dozen period transforms rather than one per factor.

This module is what ``build-mollifier`` builds and certifies.  The
wavelet's ramps use only the cone of half-width a_1 = 1/4 (the cascade's
first factor for sigma > 1.297, where N_1 = 1), whose running integral
``bell`` evaluates in closed form, so the wavelet path builds no cascade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DomainError, InputError, ResolutionError, VerificationError
from .gevrey import first_index
from .grids import GridFunction, GridSpec, abs_max

_TAIL_FLOOR = 1e-30
_M_MAX = 8  # blocks whose thresholds fix the cascade scales
_CHUNK = 2 ** 16  # block terms summed per numpy call
_P_MAX = 2 ** 27  # cap on the index where a block's terms reach the floor


# ---------------------------------------------------------------------------
# Block thresholds and scales
# ---------------------------------------------------------------------------

def _block_terms(sigma: float, m: int, p):
    """The block-m terms (2(p+1))^(-(1/m) p^(sigma-1)); they fall strictly
    in p >= 1 (from 1 at p = 0)."""
    return (2.0 * (p + 1)) ** (-(1.0 / m) * p ** (sigma - 1.0))


def _last_index(sigma: float, m: int) -> int:
    """The first index whose block-m term is below 1e-30, by bisection on the
    falling terms.  Terms are eventually dominated by a geometric sequence
    for sigma > 1, so a tail summed up to there is sound.  An index beyond
    2^27 (sigma too close to 1 to sum) is a DomainError."""
    p = first_index(lambda p: _block_terms(sigma, m, p) < _TAIL_FLOOR, _P_MAX)
    if p is None:
        raise DomainError(
            f"sigma = {sigma} is too close to 1: the block-{m} terms stay "
            f"above {_TAIL_FLOOR:g} beyond index 2^27"
        )
    return p


def block_thresholds(sigma: float, m_max: int) -> List[int]:
    """Smallest N >= 1 per block with the block tail below 2^-m; nondecreasing.

    Each block's terms are computed once, in chunks from its last index
    down, and N_m is read off their running suffix sums: the first index
    (from above) whose tail reaches 2^-m is N_m - 1.
    """
    if sigma <= 1.0:
        raise DomainError(f"sigma must exceed 1, got {sigma}")
    if m_max < 1:
        raise InputError(f"m_max must be >= 1, got {m_max}")
    out: List[int] = []
    N = 1
    for m in range(1, m_max + 1):
        hi, tail = max(_last_index(sigma, m), N) + 1, 0.0
        while hi > N:
            lo = max(N, hi - _CHUNK)
            p = np.arange(hi - 1, lo - 1, -1, dtype=float)
            suffix = tail + np.cumsum(_block_terms(sigma, m, p))
            reached = np.flatnonzero(suffix >= 2.0 ** (-m))
            if reached.size:
                N = hi - int(reached[0])
                break
            hi, tail = lo, float(suffix[-1])
        out.append(N)
    return out


@dataclass(frozen=True)
class ScaleSequence:
    """Retained cascade scales with truncation provenance."""

    p_end: int                  # index of the last retained scale
    scales: np.ndarray          # the retained a_p, by ascending p
    next_scale: float           # the widest discarded a_p
    discarded_tail_mass: float  # sum of the discarded a_p
    degenerate: bool            # cutoff exceeded a_{N_1}: single factor kept


def scale_sequence(sigma: float, thresholds: List[int], cutoff: float) -> ScaleSequence:
    """Block-formula scales from N_1 up, keeping every a_p >= cutoff.

    The scales tick up at each block start, so the retained indices need
    not be contiguous; past the last threshold they fall strictly.  One
    chunked pass up to the last block's floor index (``_last_index``)
    therefore sees every retained scale and sums the discarded ones.
    a_{N_1} is the widest scale and is always kept; a cutoff above it flags
    the degenerate single-factor cascade.
    """
    if not (np.isfinite(cutoff) and cutoff > 0):
        raise InputError(f"cutoff must be positive, got {cutoff}")
    start = thresholds[0]
    end = max(_last_index(sigma, len(thresholds)), thresholds[-1]) + 1
    kept, p_end = [], start
    tail = widest = 0.0
    for lo in range(start, end, _CHUNK):
        p = np.arange(lo, min(lo + _CHUNK, end), dtype=float)
        # p lies in block m: the thresholds are nondecreasing
        a = _block_terms(sigma, np.searchsorted(thresholds, p, side="right"), p)
        keep = (a >= cutoff) | (p == start)
        kept.append(a[keep])
        p_end = int(np.max(p, where=keep, initial=p_end))
        tail += float(np.sum(a, where=~keep))
        widest = max(widest, float(np.max(a, where=~keep, initial=0.0)))
    scales = np.concatenate(kept)
    return ScaleSequence(
        p_end=p_end,
        scales=scales,
        next_scale=widest,
        discarded_tail_mass=tail,
        degenerate=bool(scales[0] < cutoff),
    )


# ---------------------------------------------------------------------------
# Cascade construction
# ---------------------------------------------------------------------------

@dataclass
class MollifierBuild:
    """Constructed cutoff with provenance: thresholds, scales, truncation
    index, and convergence diagnostics."""

    sigma: float
    thresholds: List[int]
    scales: np.ndarray
    trunc_index: int
    phi: GridFunction
    final_gap: float            # sup-norm change from the widest discarded factor
    mass_drift: float           # |mass - 1| before renormalization
    evenness: float             # sup |phi(x) - phi(-x)| on the grid
    discarded_tail_mass: float
    degenerate: bool


def _sampled_kernel(a: float, dx: float) -> Tuple[np.ndarray, int]:
    """The unit cone dilated to half-width a, sampled symmetrically, unit
    trapezoid mass.  Kernels narrower than one grid cell collapse to the
    identity."""
    K = max(1, int(np.ceil(a / dx)))
    ker = np.maximum(0.0, 1.0 - np.abs(np.arange(-K, K + 1) * dx) / a) / a
    return ker / np.trapezoid(ker, dx=dx), K


def _kernel_spectrum(ker: np.ndarray, K: int, period: int) -> np.ndarray:
    """rfft of a 2K+1-sample kernel wrapped, centred at index 0, onto ``period``."""
    return np.fft.rfft(np.roll(np.pad(ker, (0, period - 2 * K - 1)), -K))


def build_mollifier(
    sigma: float,
    spec: GridSpec,
    cutoff: float | None = None,
) -> MollifierBuild:
    """Run the truncated cone cascade on ``spec``.

    ``cutoff`` defaults to one grid cell: every factor at least that wide
    is kept, and a kernel narrower than a cell is numerically the identity,
    so the discarded factors cannot change the samples.  The grid must
    cover [-1, 1] with margin, at 64 points or more across it.

    The grid ends lie outside the support, so the grid is one period of
    P = n - 1 samples: the sampled factors are wrapped onto it, their FFTs
    multiplied (trapezoid weight dx per convolution) and the product
    inverted once.  Walking the factors in scale order, a factor is instead
    convolved directly into a running kernel while the running length
    times its own is at most P log2 P, the cost of one period transform;
    the running kernel's transform joins the product once.  Kernels whose
    half-widths sum to P/2 or more would wrap (ResolutionError), checked
    before any convolution, so the running kernel stays shorter than the
    period.  Values below -1e-12 and a mass drift beyond 1e-8 abort rather
    than being silently absorbed.
    """
    if sigma <= 1.0:
        raise DomainError(f"sigma must exceed 1, got {sigma}")
    if cutoff is None:
        cutoff = spec.dx
    if spec.dx > cutoff:
        raise ResolutionError(
            f"grid spacing {spec.dx:.3e} exceeds the truncation cutoff {cutoff:.3e}"
        )
    if spec.x0 > -1.0 - 2 * spec.dx or spec.x_end < 1.0 + 2 * spec.dx:
        raise InputError("grid must cover [-1, 1] with margin")
    if 2.0 / spec.dx < 64:
        raise InputError(
            f"grid too coarse: {2.0 / spec.dx:.0f} points across [-1, 1], need >= 64"
        )

    thresholds = block_thresholds(sigma, _M_MAX)
    seq = scale_sequence(sigma, thresholds, cutoff)
    dx = spec.dx
    x = spec.points()
    center = int(round(-spec.x0 / dx))
    if abs(spec.x0 + center * dx) > 1e-12 * max(1.0, abs(spec.x0)):
        raise InputError("grid must contain the origin as a sample point")

    period = spec.n - 1
    kernels = [_sampled_kernel(a, dx) for a in seq.scales]
    ker_next = _sampled_kernel(seq.next_scale, dx)
    reach = sum(K for _, K in kernels) + ker_next[1]
    if 2 * reach >= period:
        raise ResolutionError(
            f"cascade kernels reach {reach} samples, at least half the "
            f"{period}-sample period: the circular product would wrap"
        )
    # A factor is convolved into the running kernel directly while that
    # costs no more than one period transform; the rest get their own.
    budget = period * np.log2(period)
    running, R = kernels[0]
    spectrum = np.ones(period // 2 + 1, dtype=complex)
    for ker, K in kernels[1:]:
        if len(running) * len(ker) <= budget:
            running, R = np.convolve(running, ker) * dx, R + K
        else:
            spectrum *= _kernel_spectrum(ker, K, period) * dx
    spectrum *= _kernel_spectrum(running, R, period)

    def to_grid(product: np.ndarray) -> np.ndarray:  # the last sample is the first
        return np.resize(np.roll(np.fft.irfft(product, period), center), spec.n)

    phi = to_grid(spectrum)
    if np.min(phi) < -1e-12:
        raise ResolutionError(
            f"convolution produced values below -1e-12 ({np.min(phi):.3e})"
        )
    phi = np.maximum(phi, 0.0)
    # Support is inside +/- sum(a_p); clear roundoff dust beyond it.
    half_supp = float(np.sum(seq.scales))
    phi[np.abs(x) > half_supp + dx] = 0.0
    mass = np.trapezoid(phi, dx=dx)
    drift = abs(mass - 1.0)
    if drift > 1e-8:
        raise ResolutionError(f"mass drift {drift:.3e} exceeds 1e-8")
    phi = phi / mass

    evenness = float(np.max(np.abs(phi - phi[::-1])))

    # Convergence at the truncation point: extend by the widest discarded
    # factor and measure the sup change (sub-cell kernels are the identity).
    ext = np.maximum(to_grid(spectrum * _kernel_spectrum(*ker_next, period) * dx), 0.0)
    final_gap = float(np.max(np.abs(ext / np.trapezoid(ext, dx=dx) - phi)))

    return MollifierBuild(
        sigma=sigma,
        thresholds=thresholds,
        scales=seq.scales,
        trunc_index=seq.p_end,
        phi=GridFunction(spec.x0, dx, phi),
        final_gap=final_gap,
        mass_drift=drift,
        evenness=evenness,
        discarded_tail_mass=seq.discarded_tail_mass,
        degenerate=seq.degenerate,
    )


# ---------------------------------------------------------------------------
# Derivative audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeAuditRow:
    n: int
    measured: float
    bound: float
    ratio: float


@dataclass(frozen=True)
class DerivativeAuditReport:
    rows: tuple
    log_c_fit: float     # envelope constant of the growth-shape fit
    tau_eff: float       # fitted effective tau over the audited n range


def _spectral_derivative_sups(phi: GridFunction, n_max: int):
    """Sup of each derivative via frequency-domain differentiation.

    The cutoff is periodized on its (compact-support) grid and transformed
    once to its real half-spectrum; modes whose magnitude sits below 1e-15
    of the peak are pure roundoff and are zeroed before multiplying by
    (i w)^n = i^n w^n.
    """
    vals = phi.values[:-1]
    nfft = len(vals)
    omega = 2.0 * np.pi * np.fft.rfftfreq(nfft, d=phi.dx)
    F = np.fft.rfft(vals)
    mag = np.abs(F)
    F[mag < 1e-15 * mag.max()] = 0.0
    return [
        float(abs_max(np.fft.irfft(F * (omega ** q * 1j ** q), nfft)))
        for q in range(n_max + 1)
    ]


def derivative_bound_audit(build: MollifierBuild, n_max: int) -> DerivativeAuditReport:
    """Certify measured derivative sups against the factor-product bounds.

    For each n the bound anchors one undifferentiated factor in sup norm and
    differentiates the n largest-scale factors after the first:

        B_n = (sup f / a_{N_1}) * prod_{k=1}^{n} (||f'||_1 / a_{q_k}),

    with the unit cone's sup f = 1 and ||f'||_1 = 2, q_k running over the n
    smallest retained indices past N_1.  Measured sups must stay below
    B_n * (1 + 1e-3).  The growth-shape fit regresses log sup on
    (n^sigma, n^sigma log n) and shifts the constant up to an envelope,
    reporting the effective tau.
    """
    if n_max > 12:
        raise InputError(f"n_max is capped at 12, got {n_max}")
    n_factors_after_first = len(build.scales) - 1
    if n_factors_after_first <= n_max:
        raise InputError(
            f"need more than {n_max} factors after the first; retained "
            f"{len(build.scales)} total"
        )
    sups = _spectral_derivative_sups(build.phi, n_max)

    rows = []
    anchor = 1.0 / build.scales[0]
    for q in range(n_max + 1):
        bound = anchor
        for k in range(q):
            bound *= 2.0 / build.scales[1 + k]
        measured = sups[q]
        if measured > bound * (1.0 + 1e-3):
            raise VerificationError(
                f"derivative sup at n={q} exceeds its bound: "
                f"{measured:.6e} > {bound:.6e}",
                detail=("n", q),
            )
        rows.append(DerivativeAuditRow(q, measured, bound, measured / bound))

    ns = np.arange(2, n_max + 1, dtype=float)
    y = np.log(np.array(sups[2: n_max + 1]))
    basis = np.vstack([ns ** build.sigma, ns ** build.sigma * np.log(ns)]).T
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    log_c, tau_eff = float(coef[0]), float(coef[1])
    # shift log C so the fitted form is a true envelope over the audited range
    resid = y - basis @ coef
    log_c += float(np.max(resid / ns ** build.sigma))
    return DerivativeAuditReport(rows=tuple(rows), log_c_fit=log_c, tau_eff=tau_eff)
