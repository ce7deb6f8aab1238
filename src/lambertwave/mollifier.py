"""Compactly supported cutoff built as a convolution cascade of scaled unit
cones, from its exact transform, with full provenance and per-derivative
analytic bounds.

The cascade scales a_p follow the double-indexed block rule: within block m
(thresholds N_m <= p < N_{m+1}),

    a_p = (2 (p + 1)) ** (-(1/m) * p**(sigma - 1)),

where N_m is the smallest index whose block tail sums below 2^-m; one walk
per block, top block first, finds N_m and the block's scales together.
Every factor is the unit cone (1 - |t|)_+ dilated to half-width a_p at unit
mass; the infinite cascade is C^infinity with support [-S, S], S = sum a_p
(Hormander, ALPDO I, Thm 1.3.5), and the retained-scale product of the
cone's first-derivative L1 norms yields certified sup bounds on each
derivative of the result.

The cone of half-width a has the transform sinc^2(a w / 2), so the cascade's
transform is the closed-form product phi_hat(w) = prod_p sinc^2(a_p w / 2).
The build keeps one exact factor for every a_p of at least one grid cell
and folds all narrower ones into exp(-(w/2)^2 sum a^2/3 - (w/2)^4 sum
a^4/90), the first two terms of their log sinc^2; the samples are one
inverse transform of that product on the grid's period.

This module is what ``build-mollifier`` builds and certifies.  The
wavelet's ramps use only the cone of half-width a_1 = 1/4 (the cascade's
first factor for sigma > 1.297, where N_1 = 1), whose running integral
``bell`` evaluates in closed form, so the wavelet path builds no cascade.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import DomainError, InputError, ResolutionError, VerificationError
from .gevrey import SIGMA_MAX, first_index
from .grids import GridFunction, GridSpec, abs_max

_TAIL_FLOOR = 1e-30
_M_MAX = 8  # blocks whose thresholds fix the cascade scales
_CHUNK = 2 ** 16  # block terms summed per numpy call
_P_MAX = 2 ** 27  # cap on the index where a block's terms reach the floor
_PRODUCTS = 2 ** 18  # scale-by-bin sinc^2 factors formed per numpy call
# -log of 2^-1075, half the least subnormal double: a product below it
# rounds to 0
_UNDERFLOW = 1075.0 * math.log(2.0)


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


@dataclass(frozen=True)
class ScaleSequence:
    """Block thresholds and retained cascade scales with truncation provenance."""

    thresholds: List[int]       # N_1 <= ... <= N_8
    p_end: int                  # index of the last retained scale
    scales: np.ndarray          # the retained a_p, by ascending p
    discarded_tail_mass: float  # sum of the discarded a_p
    discarded_a2: float         # sum of their squares
    discarded_a4: float         # sum of their fourth powers


def cascade_scales(sigma: float, cutoff: float) -> ScaleSequence:
    """The block thresholds and every scale a_p >= cutoff, from one walk per
    block: top block first, in chunks from its floor index (``_last_index``)
    down.  The first index (from above) whose running tail reaches 2^-m is
    N_m - 1, clamped to N_m <= N_{m+1}; the same terms on [N_m, N_{m+1})
    (block 8: up to its floor index) are block m's scales.  A scale below
    the cutoff goes into the discarded sums, save a_{N_1}, always kept."""
    if not 1.0 < sigma < SIGMA_MAX:  # p^(sigma - 1) stays finite up to p = 2
        raise DomainError(f"sigma must lie in (1, {SIGMA_MAX:g}), got {sigma}")
    if not (np.isfinite(cutoff) and cutoff > 0):
        raise InputError(f"cutoff must be positive, got {cutoff}")
    thresholds, kept, p_end = [], [], 0
    sums = [0.0, 0.0, 0.0]  # of the discarded a_p, a_p^2 and a_p^4
    for m in range(_M_MAX, 0, -1):
        top, tail = _last_index(sigma, m) + 1, 0.0
        end = thresholds[-1] if thresholds else top  # one past block m's indices
        for hi in range(top, 1, -_CHUNK):
            lo = max(1, hi - _CHUNK)
            p = np.arange(hi - 1, lo - 1, -1, dtype=float)
            a = _block_terms(sigma, m, p)
            suffix = tail + np.cumsum(a)
            reached = np.flatnonzero(suffix >= 2.0 ** (-m))
            N = min(hi - int(reached[0]), end) if reached.size else 1
            own = slice(max(hi - end, 0), hi - max(N, lo))  # block m's indices, descending
            a, p, tail = a[own], p[own], float(suffix[-1])
            keep = (a >= cutoff) | (p == N) & (m == 1)  # a_{N_1} is always kept
            kept.append(a[keep][::-1])
            p_end = int(np.max(p, where=keep, initial=p_end))
            drop, sq = ~keep, a * a
            sums = [t + float(np.sum(v, where=drop)) for t, v in zip(sums, (a, sq, sq * sq))]
            if reached.size:
                break
        thresholds.append(N)
    return ScaleSequence(thresholds[::-1], p_end, np.concatenate(kept[::-1]), *sums)


# ---------------------------------------------------------------------------
# Cascade construction
# ---------------------------------------------------------------------------

@dataclass
class MollifierBuild:
    """Constructed cutoff with provenance: thresholds, scales, truncation
    index, and its transform on the grid's rfft bins."""

    sigma: float
    thresholds: List[int]
    scales: np.ndarray
    trunc_index: int
    phi: GridFunction
    spectrum: np.ndarray        # phi_hat at the rfft bins of the grid's period
    evenness: float             # sup |phi(x) - phi(-x)| on the grid
    discarded_tail_mass: float


def cascade_spectrum(
    scales: np.ndarray,
    freq: np.ndarray,
    discarded_a2: float = 0.0,
    discarded_a4: float = 0.0,
) -> np.ndarray:
    """The cascade's transform at the ascending frequencies ``freq`` >= 0
    (cycles per unit, w = 2 pi f): prod_p sinc^2(a_p w / 2) over ``scales``,
    with np.sinc(a f) = sinc(a w / 2), times the fold

        exp(-(w/2)^2 discarded_a2 / 3 - (w/2)^4 discarded_a4 / 90)

    of the discarded factors, the first two terms of their log sinc^2.

    Each factor is at most min(1, (pi a f)^-2), and so is their product: at
    every frequency from the first where that bound falls below 2^-1075 on,
    the product rounds to 0 and is not formed.  The factors are multiplied
    in chunks of scales, at most 2^18 scale-by-bin factors at a time.
    """
    scales = np.asarray(scales, dtype=float)
    live = bisect.bisect_left(
        range(len(freq)), True,
        key=lambda k: 2.0 * np.sum(np.log(np.maximum(np.pi * scales * freq[k], 1.0)))
        > _UNDERFLOW,
    )
    f = freq[:live]
    h2 = (np.pi * f) ** 2  # (w/2)^2
    out = np.zeros(len(freq))
    out[:live] = np.exp(-h2 * (discarded_a2 / 3.0) - h2 ** 2 * (discarded_a4 / 90.0))
    step = max(1, _PRODUCTS // max(live, 1))
    for lo in range(0, len(scales), step):
        out[:live] *= np.prod(np.sinc(np.multiply.outer(scales[lo:lo + step], f)) ** 2,
                              axis=0)
    return out


def build_mollifier(sigma: float, spec: GridSpec) -> MollifierBuild:
    """The cone cascade sampled on ``spec``, from its exact transform.

    The grid must cover [-1, 1] with margin, at 64 points or more across
    it, and contain the origin.  Its ends lie outside the support, so the
    grid is one period of P = n - 1 samples, and the samples are one
    inverse rfft of phi_hat on that period's rfft bins
    (``cascade_spectrum``): one exact sinc^2 factor for every a_p of at
    least one grid cell, and the fold for all narrower ones.  The samples
    beyond the kept scales' sum plus the lesser of dx and the discarded tail
    mass are cleared: past the true support, sum a_p over every scale, phi
    is 0.  A value below -1e-12 inside that bound aborts, and the roundoff
    around 0 is clamped.  The mass is phi_hat(0) = 1.
    """
    if spec.x0 > -1.0 - 2 * spec.dx or spec.x_end < 1.0 + 2 * spec.dx:
        raise InputError("grid must cover [-1, 1] with margin")
    if 2.0 / spec.dx < 64:
        raise InputError(
            f"grid too coarse: {2.0 / spec.dx:.0f} points across [-1, 1], need >= 64"
        )
    dx = spec.dx
    center = int(round(-spec.x0 / dx))
    if abs(spec.x0 + center * dx) > 1e-12 * max(1.0, abs(spec.x0)):
        raise InputError("grid must contain the origin as a sample point")

    seq = cascade_scales(sigma, dx)
    period = spec.n - 1
    spectrum = cascade_spectrum(seq.scales, np.fft.rfftfreq(period, dx),
                                seq.discarded_a2, seq.discarded_a4)
    # the period's sample k sits at x = k dx; the grid's last sample is its first
    phi = np.resize(np.roll(np.fft.irfft(spectrum, period) / dx, center), spec.n)
    support = float(np.sum(seq.scales)) + min(dx, seq.discarded_tail_mass)
    phi[np.abs(spec.points()) > support] = 0.0
    if np.min(phi) < -1e-12:
        raise ResolutionError(
            f"cascade samples fall below -1e-12 ({np.min(phi):.3e})"
        )
    phi = np.maximum(phi, 0.0)

    return MollifierBuild(
        sigma=sigma,
        thresholds=seq.thresholds,
        scales=seq.scales,
        trunc_index=seq.p_end,
        phi=GridFunction(spec.x0, dx, phi),
        spectrum=spectrum,
        evenness=float(np.max(np.abs(phi - phi[::-1]))),
        discarded_tail_mass=seq.discarded_tail_mass,
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
    log_c_fit: Optional[float]  # envelope constant of the growth-shape fit
    tau_eff: Optional[float]    # fitted effective tau; None below n_max = 3


def derivative_bound_audit(build: MollifierBuild, n_max: int) -> DerivativeAuditReport:
    """Certify measured derivative sups against the factor-product bounds.

    For each n the bound anchors one undifferentiated factor in sup norm and
    differentiates the n largest-scale factors after the first:

        B_n = (sup f / a_{N_1}) * prod_{k=1}^{n} (||f'||_1 / a_{q_k}),

    with the unit cone's sup f = 1 and ||f'||_1 = 2, q_k running over the n
    smallest retained indices past N_1.  Each sup is measured on the grid
    from the build's own spectrum, and must stay below B_n * (1 + 1e-3).
    The growth-shape fit regresses log sup on (n^sigma, n^sigma log n) and
    shifts the constant up to an envelope, reporting the effective tau; it
    needs n_max >= 3.
    """
    if n_max > 12:
        raise InputError(f"n_max is capped at 12, got {n_max}")
    if len(build.scales) - 1 <= n_max:
        raise InputError(
            f"need more than {n_max} factors after the first; retained "
            f"{len(build.scales)} total"
        )
    period, dx = build.phi.n - 1, build.phi.dx
    omega = 2.0 * np.pi * np.fft.rfftfreq(period, dx)
    bounds = np.cumprod(np.concatenate([[1.0 / build.scales[0]],
                                        2.0 / build.scales[1:n_max + 1]]))
    rows = []
    for q, bound in enumerate(bounds):
        # the sup on the grid: one irfft of (i w)^q phi_hat, the build's spectrum
        spectrum = build.spectrum * (omega ** q * 1j ** q)
        measured = float(abs_max(np.fft.irfft(spectrum, period))) / dx
        if measured > bound * (1.0 + 1e-3):
            raise VerificationError(
                f"derivative sup at n={q} exceeds its bound: "
                f"{measured:.6e} > {bound:.6e}",
                detail=("n", q),
            )
        rows.append(DerivativeAuditRow(q, measured, bound, measured / bound))

    if n_max < 3:  # two coefficients need two orders n >= 2
        return DerivativeAuditReport(rows=tuple(rows), log_c_fit=None, tau_eff=None)
    ns = np.arange(2, n_max + 1, dtype=float)
    y = np.log([r.measured for r in rows[2:]])
    basis = np.vstack([ns ** build.sigma, ns ** build.sigma * np.log(ns)]).T
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    log_c, tau_eff = float(coef[0]), float(coef[1])
    # shift log C so the fitted form is a true envelope over the audited range
    resid = y - basis @ coef
    log_c += float(np.max(resid / ns ** build.sigma))
    return DerivativeAuditReport(rows=tuple(rows), log_c_fit=log_c, tau_eff=tau_eff)
