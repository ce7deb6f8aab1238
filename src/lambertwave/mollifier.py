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

The cone of half-width a has the transform sinc^2(a w / 2), so the
cascade's transform is the closed-form product phi_hat(w) = prod_p
sinc^2(a_p w / 2).  It passes below 1e-308 well inside the bins the
build reads (at sigma = 1.5 from bin 6,300 of the 2^17 grid's 65,537 on),
so it is formed in log space (``log_cascade_spectrum``): one exact log
sinc^2 term for every a_p of at least one grid cell, and the narrower
ones folded into the bracket

    -x^2/3 - x^4/45 <= log sinc^2 x <= -x^2/3 - x^4/90,   0 < x <= 2.5,

summed over their sums of a^2 and a^4 (the Taylor coefficients of
log(sin x / x) are all negative; Abramowitz & Stegun, ch. 4).  The
samples are one inverse transform of exp of the bracket's upper end on
the grid's period.

This module is what ``build-mollifier`` builds and certifies.  The
wavelet's ramps use only the cone of half-width a_1 = 1/4 (the cascade's
first factor for sigma > 1.297, where N_1 = 1), whose running integral
``bell`` evaluates in closed form, so the wavelet path builds no cascade.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DomainError, InputError, ResolutionError, VerificationError
from .gevrey import SIGMA_MAX, SIGMA_MIN, first_index
from .grids import GridFunction, GridSpec, abs_max

_TAIL_FLOOR = 1e-30
_M_MAX = 8  # blocks whose thresholds fix the cascade scales
_CHUNK = 2 ** 16  # block terms summed per numpy call
_P_MAX = 2 ** 27  # cap on the index where a block's terms reach the floor
AUDIT_N_MAX = 8  # highest derivative order of the bound audit
_AUDIT_SLACK = 1e-3  # a measured derivative sup may pass its bound B_n by this fraction
_SAMPLE_FLOOR = -1e-12  # least cutoff sample within the support, before the clamp
_FOLD_X = 2.5  # the fold's bracket holds for x = pi f a <= this, a any folded scale
# -log of 2^-1075, half the least subnormal double: exp of a log below
# minus this rounds to 0
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
    falling terms.  For sigma < 2 their ratio tends to 1 (0.99999938 here at
    sigma = 1.2, block 8): no geometric bound holds, but they fall faster
    than any power of p, and by the integral test the tail dropped from here
    is 1.7e-24 at (sigma, m) = (1.2, 8), 7.0e-28 at (1.2, 1), 9.2e-29 at
    (1.5, 8).  An index beyond 2^27 (sigma too close to 1) is a DomainError."""
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
    discarded_max: float        # the largest of them, 0 when none is


def cascade_scales(sigma: float, cutoff: float) -> ScaleSequence:
    """The block thresholds and every scale a_p >= cutoff, from one walk per
    block: top block first, in chunks from its floor index (``_last_index``)
    down.  The first index (from above) whose running tail reaches 2^-m is
    N_m - 1, clamped to N_m <= N_{m+1}; the same terms on [N_m, N_{m+1})
    (block 8: up to its floor index) are block m's scales.  A scale below
    the cutoff goes into the discarded sums and maximum, save a_{N_1},
    always kept."""
    if not SIGMA_MIN <= sigma < SIGMA_MAX:  # p^(sigma - 1) stays finite up to p = 2
        raise DomainError(f"sigma must lie in [{SIGMA_MIN!r}, {SIGMA_MAX:g}), got {sigma}")
    if not (np.isfinite(cutoff) and cutoff > 0):
        raise InputError(f"cutoff must be positive, got {cutoff}")
    thresholds, kept, p_end, widest = [], [], 0, 0.0
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
            widest = float(np.max(a, where=drop, initial=widest))
            if reached.size:
                break
        thresholds.append(N)
    return ScaleSequence(thresholds[::-1], p_end, np.concatenate(kept[::-1]), *sums, widest)


# ---------------------------------------------------------------------------
# Cascade construction
# ---------------------------------------------------------------------------

@dataclass
class MollifierBuild:
    """Constructed cutoff with provenance: thresholds, scales, truncation
    index, and its transform on the grid's rfft bins."""

    thresholds: List[int]
    scales: np.ndarray
    trunc_index: int
    phi: GridFunction
    spectrum: np.ndarray        # phi_hat at the rfft bins of the grid's period
    evenness: float             # sup |phi(x) - phi(-x)| on the grid
    discarded_tail_mass: float


def log_cascade_spectrum(scales: np.ndarray, freq: np.ndarray, discarded_a2: float = 0.0,
                         discarded_a4: float = 0.0, discarded_max: float = 0.0
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """The pair (lo, hi) that brackets log phi_hat at the ascending
    frequencies ``freq`` >= 0 (cycles per unit, w = 2 pi f, h = w / 2 =
    pi f): the kept factors' sum_p 2 log|sinc(a_p f)| over ``scales``,
    with np.sinc's sinc(a f) = sin(pi a f) / (pi a f), plus the fold of the
    discarded ones,

        lo: -h^2 discarded_a2 / 3 - h^4 discarded_a4 / 45,
        hi: -h^2 discarded_a2 / 3 - h^4 discarded_a4 / 90,

    the sum over those factors of the bracket of log sinc^2 x, x = h a,
    which holds on 0 < x <= ``_FOLD_X`` (2.5).  Where pi f times
    ``discarded_max``, the widest discarded scale, passes it, the call is
    a DomainError.  The kept sum is formed one scale at a time over the
    bins f > 0, into one accumulator; f = 0 has log phi_hat = 0.  A log
    does not underflow: hi stays finite where phi_hat is far below the
    least double.
    """
    if np.pi * discarded_max * np.max(freq, initial=0.0) > _FOLD_X:
        raise DomainError(f"pi f a passes {_FOLD_X} at the discarded scale {discarded_max:.3e}, "
                          f"f = {np.max(freq):.6g}: the fold's bracket is unchecked there")
    z = int(np.searchsorted(freq, 0.0, side="right"))
    f, kept = freq[z:], np.zeros(len(freq))
    y, s = np.empty((2, len(f)))
    for a in scales:
        np.multiply(f, np.pi * a, out=y)
        np.sin(y, out=s)
        s /= y
        kept[z:] += np.log(np.abs(s, out=s), out=s)
    h2 = (np.pi * freq) ** 2
    kept = 2.0 * kept - h2 * (discarded_a2 / 3.0)
    h4 = h2 ** 2 * discarded_a4
    return kept - h4 / 45.0, kept - h4 / 90.0


def cascade_spectrum(scales: np.ndarray, freq: np.ndarray, discarded_a2: float = 0.0,
                     discarded_a4: float = 0.0, discarded_max: float = 0.0) -> np.ndarray:
    """The cascade's transform at the ascending frequencies ``freq`` >= 0:
    exp of the upper end of ``log_cascade_spectrum``'s bracket, the kept
    factors times exp(-h^2 discarded_a2 / 3 - h^4 discarded_a4 / 90).

    Each factor is at most min(1, (pi a f)^-2), and so is their product:
    from the first frequency where that bound of the kept factors falls
    below 2^-1075 on, exp of the log rounds to 0, so the transform is 0
    there and its log is not formed (over every bin of the cutoff stage's
    grid the log takes 3.8 times as long at sigma = 1.5, 16 at 1.2).
    """
    scales = np.asarray(scales, dtype=float)
    live = bisect.bisect_left(range(len(freq)), True, key=lambda k: 2.0 * np.sum(
        np.log(np.maximum(np.pi * scales * freq[k], 1.0))) > _UNDERFLOW)
    out = np.zeros(len(freq))
    out[:live] = np.exp(log_cascade_spectrum(scales, freq[:live], discarded_a2,
                                             discarded_a4, discarded_max)[1])
    return out


def build_mollifier(sigma: float, spec: GridSpec) -> MollifierBuild:
    """The cone cascade sampled on ``spec``, from its exact transform.

    The grid must cover [-1, 1] with margin, at 64 points or more across
    it, and contain the origin.  Its ends lie outside the support, so the
    grid is one period of P = n - 1 samples, and the samples are one
    inverse rfft of phi_hat on that period's rfft bins
    (``cascade_spectrum``): one exact sinc^2 factor for every a_p of at
    least one grid cell, and the upper end of the fold's bracket for all
    narrower ones.  The samples beyond the kept scales' sum plus the lesser
    of dx and the discarded tail mass are cleared: past the true support,
    sum a_p over every scale, phi is 0.  A value below ``_SAMPLE_FLOOR`` (-1e-12) inside that bound
    aborts, and the roundoff around 0 is clamped.  The mass is
    phi_hat(0) = 1.
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
    spectrum = cascade_spectrum(seq.scales, np.fft.rfftfreq(period, dx), seq.discarded_a2,
                                seq.discarded_a4, seq.discarded_max)
    # the period's sample k sits at x = k dx; the grid's last sample is its first
    phi = np.resize(np.roll(np.fft.irfft(spectrum, period) / dx, center), spec.n)
    support = float(np.sum(seq.scales)) + min(dx, seq.discarded_tail_mass)
    phi[np.abs(spec.points()) > support] = 0.0
    if np.min(phi) < _SAMPLE_FLOOR:
        raise ResolutionError(
            f"cascade samples fall below {_SAMPLE_FLOOR:.0e} ({np.min(phi):.3e})"
        )
    phi = np.maximum(phi, 0.0)

    return MollifierBuild(
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
    n_max: int  # highest order audited; 0 when none is
    rows: tuple


def derivative_bound_audit(build: MollifierBuild) -> DerivativeAuditReport:
    """Certify measured derivative sups against the factor-product bounds,
    for n = 0..n_max, n_max = min(``AUDIT_N_MAX``, retained factors - 2):
    each bound differentiates n factors after the first, and the audit
    needs three factors.  With fewer it returns no rows.

    For each n the bound anchors one undifferentiated factor in sup norm and
    differentiates the n largest-scale factors after the first:

        B_n = (sup f / a_{N_1}) * prod_{k=1}^{n} (||f'||_1 / a_{q_k}),

    with the unit cone's sup f = 1 and ||f'||_1 = 2, q_k running over the n
    smallest retained indices past N_1.  Each sup is measured on the grid
    from the build's own spectrum, and must stay below
    B_n * (1 + ``_AUDIT_SLACK``), with ``_AUDIT_SLACK`` = 1e-3.
    """
    n_max = min(AUDIT_N_MAX, len(build.scales) - 2)
    if n_max <= 0:
        return DerivativeAuditReport(0, ())
    period, dx = build.phi.n - 1, build.phi.dx
    omega = 2.0 * np.pi * np.fft.rfftfreq(period, dx)
    bounds = np.cumprod(np.concatenate([[1.0 / build.scales[0]],
                                        2.0 / build.scales[1:n_max + 1]]))
    rows = []
    for q, bound in enumerate(bounds):
        # the sup on the grid: one irfft of (i w)^q phi_hat, the build's spectrum
        spectrum = build.spectrum * (omega ** q * 1j ** q)
        measured = float(abs_max(np.fft.irfft(spectrum, period))) / dx
        if measured > bound * (1.0 + _AUDIT_SLACK):
            raise VerificationError(
                f"derivative sup at n={q} exceeds its bound: "
                f"{measured:.6e} > {bound:.6e}",
                detail=("n", q),
            )
        rows.append(DerivativeAuditRow(q, measured, bound, measured / bound))
    return DerivativeAuditReport(n_max, tuple(rows))
