"""Compactly supported cutoff built as a truncated convolution cascade of
scaled bumps, with full provenance and per-derivative analytic bounds.

The cascade scales a_p follow the double-indexed block rule: within block m
(thresholds N_m <= p < N_{m+1}),

    a_p = (2 (p + 1)) ** (-(1/m) * p**(sigma - 1)),

where N_m is the smallest index whose block tail sums below 2^-m.  The
retained-scale product of first-derivative L1 norms yields certified sup
bounds on each derivative of the result.

A cascade's transform is the product of its factors' transforms, so the
cascade is built as one spectral product on the grid's period.

Two base bumps are available:

* ``analytic``  -- c * exp(-1 / (1 - x^2)); the classical choice.
* ``cone``      -- a triangle of half-width ``base_width`` (its arbitrarily
  narrow smoothing is below any practical grid, so samples coincide with
  the triangle's).

This module is what ``build-mollifier`` builds and certifies.  The
wavelet's ramps use only the cone cascade's first factor, a_1 = 1/4, whose
running integral ``bell`` evaluates in closed form, so the wavelet path
builds no cascade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DomainError, InputError, ResolutionError, VerificationError
from .grids import GridFunction, GridSpec

_TAIL_FLOOR = 1e-30
_M_MAX = 8  # blocks whose thresholds fix the cascade scales
_CHUNK = 2 ** 16  # block terms summed per numpy call


# ---------------------------------------------------------------------------
# Base bumps
# ---------------------------------------------------------------------------

def _analytic_vals(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def _cone_vals(t: np.ndarray, width: float) -> np.ndarray:
    return np.maximum(0.0, 1.0 - np.abs(t) / width) / width


def _base_profile(kind: str, base_width: float = 1.0):
    """The unit-scale base bump of ``kind`` as (t -> samples, half-width)."""
    if kind == "analytic":
        return _analytic_vals, 1.0
    if kind == "cone":
        if not (0.0 < base_width <= 1.0):
            raise InputError(f"base_width must be in (0, 1], got {base_width}")
        return (lambda t: _cone_vals(t, base_width)), base_width
    raise InputError(f"unknown base bump kind {kind!r}")


def base_bump(spec: GridSpec, kind: str = "analytic", base_width: float = 1.0) -> GridFunction:
    """Sample the unit-scale base bump: even, nonnegative, support in [-1, 1],
    unit mass (normalized against its own trapezoid sum).

    ``kind`` selects the profile; the cone's ``base_width`` must lie in (0, 1].
    Fewer than 64 points across [-1, 1] is rejected.
    """
    if spec.x0 > -1.0 or spec.x_end < 1.0:
        raise InputError("grid must cover [-1, 1]")
    if 2.0 / spec.dx < 64:
        raise InputError(
            f"grid too coarse: {2.0 / spec.dx:.0f} points across the support, need >= 64"
        )
    base_vals, width = _base_profile(kind, base_width)
    raw = base_vals(spec.points())
    mass = np.trapezoid(raw, dx=spec.dx)
    return GridFunction(spec.x0, spec.dx, raw / mass, (-width, width))


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
    for sigma > 1, so a tail summed up to there is sound."""
    lo, hi = 0, 1
    while _block_terms(sigma, m, hi) >= _TAIL_FLOOR:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _block_terms(sigma, m, mid) >= _TAIL_FLOOR else (lo, mid)
    return hi


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

    p_start: int
    p_end: int                  # index of the last retained scale
    scales: np.ndarray          # a_p for p = p_start..p_end
    next_scale: float           # first discarded a_{p_end + 1}
    discarded_tail_mass: float  # sum of a_p beyond p_end
    degenerate: bool            # cutoff exceeded a_{N_1}: single factor kept


def _scale_at(p: int, sigma: float, thresholds: List[int]) -> float:
    # p lies in block m: the thresholds are nondecreasing
    return _block_terms(sigma, max(1, sum(N <= p for N in thresholds)), p)


def scale_sequence(sigma: float, thresholds: List[int], cutoff: float) -> ScaleSequence:
    """Block-formula scales from N_1 up, truncated at the first a_p < cutoff.

    At least one factor is always kept; a cutoff above a_{N_1} flags the
    degenerate single-factor cascade.  The discarded tail mass is summed
    directly until terms vanish.
    """
    if not (np.isfinite(cutoff) and cutoff > 0):
        raise InputError(f"cutoff must be positive, got {cutoff}")
    p = thresholds[0]
    kept: List[float] = []
    while True:
        a = _scale_at(p, sigma, thresholds)
        if a < cutoff and kept:
            break
        if a < cutoff and not kept:
            kept.append(a)  # degenerate: keep the first factor regardless
            p += 1
            break
        kept.append(a)
        p += 1
    p_end = thresholds[0] + len(kept) - 1
    tail = 0.0
    q = p_end + 1
    nxt = _scale_at(q, sigma, thresholds)
    while True:
        a = _scale_at(q, sigma, thresholds)
        tail += a
        if a < _TAIL_FLOOR:
            break
        q += 1
    return ScaleSequence(
        p_start=thresholds[0],
        p_end=p_end,
        scales=np.array(kept),
        next_scale=nxt,
        discarded_tail_mass=tail,
        degenerate=bool(kept[0] < cutoff),
    )


# ---------------------------------------------------------------------------
# Cascade construction
# ---------------------------------------------------------------------------

@dataclass
class MollifierBuild:
    """Constructed cutoff with provenance: thresholds, scales, truncation
    index, per-factor norm data, and convergence diagnostics."""

    sigma: float
    thresholds: List[int]
    scales: np.ndarray
    trunc_index: int
    base_norm_c: float          # L1 norm of the unit-scale base bump derivative
    base_sup: float             # sup of the unit-scale base bump
    base_kind: str
    phi: GridFunction
    final_gap: float            # sup-norm change from the first discarded factor
    mass_drift: float           # |mass - 1| before renormalization
    evenness: float             # sup |phi(x) - phi(-x)| on the grid
    discarded_tail_mass: float
    degenerate: bool


def _sampled_kernel(base_vals, a: float, dx: float) -> Tuple[np.ndarray, int]:
    """Base bump scaled to half-width ~a, sampled symmetrically, unit trapezoid
    mass.  Kernels narrower than one grid cell collapse to the identity."""
    K = max(1, int(np.ceil(a / dx)))
    t = (np.arange(-K, K + 1) * dx) / a
    ker = base_vals(t) / a
    mass = np.trapezoid(ker, dx=dx)
    if mass <= 0:
        ker = np.zeros(2 * K + 1)
        ker[K] = 1.0 / dx
        return ker, K
    return ker / mass, K


def _kernel_spectrum(ker: np.ndarray, K: int, period: int) -> np.ndarray:
    """rfft of a 2K+1-sample kernel wrapped, centred at index 0, onto ``period``."""
    return np.fft.rfft(np.roll(np.pad(ker, (0, period - 2 * K - 1)), -K))


def build_mollifier(
    sigma: float,
    spec: GridSpec,
    cutoff: float | None = None,
    base: str = "analytic",
) -> MollifierBuild:
    """Run the truncated convolution cascade on ``spec``.

    ``cutoff`` defaults to one grid cell: a kernel narrower than a cell is
    numerically the identity, so deeper factors cannot change the samples.
    The grid ends lie outside the support, so the grid is one period of
    P = n - 1 samples: the sampled factors are wrapped onto it, their FFTs
    multiplied (trapezoid weight dx per convolution) and the product
    inverted once.  Kernels whose half-widths sum to P/2 or more would wrap
    (ResolutionError); values below -1e-12 and a mass drift beyond 1e-8
    abort rather than being silently absorbed.
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

    base_vals, _ = _base_profile(base)

    thresholds = block_thresholds(sigma, _M_MAX)
    seq = scale_sequence(sigma, thresholds, cutoff)
    dx = spec.dx
    x = spec.points()
    center = int(round(-spec.x0 / dx))
    if abs(spec.x0 + center * dx) > 1e-12 * max(1.0, abs(spec.x0)):
        raise InputError("grid must contain the origin as a sample point")

    period = spec.n - 1
    kernels = [_sampled_kernel(base_vals, a, dx) for a in seq.scales]
    ker_next = _sampled_kernel(base_vals, seq.next_scale, dx)
    reach = sum(K for _, K in kernels) + ker_next[1]
    if 2 * reach >= period:
        raise ResolutionError(
            f"cascade kernels reach {reach} samples, at least half the "
            f"{period}-sample period: the circular product would wrap"
        )
    spectrum = _kernel_spectrum(*kernels[0], period)
    for ker, K in kernels[1:]:
        spectrum *= _kernel_spectrum(ker, K, period) * dx

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

    # Convergence at the truncation point: extend by the first discarded
    # factor and measure the sup change (sub-cell kernels are the identity).
    ext = np.maximum(to_grid(spectrum * _kernel_spectrum(*ker_next, period) * dx), 0.0)
    final_gap = float(np.max(np.abs(ext / np.trapezoid(ext, dx=dx) - phi)))

    base_gf = base_bump(spec, kind=base)
    base_sup = float(np.max(base_gf.values))
    base_norm_c = 2.0 * base_sup  # even unimodal bump: L1 of derivative = 2 sup

    gf = GridFunction(spec.x0, dx, phi, (-min(half_supp + dx, 1.0), min(half_supp + dx, 1.0)))
    return MollifierBuild(
        sigma=sigma,
        thresholds=thresholds,
        scales=seq.scales,
        trunc_index=seq.p_end,
        base_norm_c=base_norm_c,
        base_sup=base_sup,
        base_kind=base,
        phi=gf,
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

    The cutoff is periodized on its (compact-support) grid; modes whose
    magnitude sits below 1e-15 of the peak are pure roundoff and are zeroed
    before multiplying by (i w)^n.
    """
    vals = phi.values[:-1]
    nfft = len(vals)
    omega = 2.0 * np.pi * np.fft.fftfreq(nfft, d=phi.dx)
    F = np.fft.fft(vals)
    mag = np.abs(F)
    mask = mag >= 1e-15 * mag.max()
    sups = []
    for q in range(n_max + 1):
        Fq = np.where(mask, F * (1j * omega) ** q, 0.0)
        sups.append(float(np.max(np.abs(np.fft.ifft(Fq).real))))
    return sups


def derivative_bound_audit(build: MollifierBuild, n_max: int) -> DerivativeAuditReport:
    """Certify measured derivative sups against the factor-product bounds.

    For each n the bound anchors one undifferentiated factor in sup norm and
    differentiates the n largest-scale factors after the first:

        B_n = (sup f / a_{N_1}) * prod_{k=1}^{n} (||f'||_1 / a_{q_k}),

    q_k running over the n smallest retained indices past N_1.  Measured
    sups must stay below B_n * (1 + 1e-3).  The growth-shape fit regresses
    log sup on (n^sigma, n^sigma log n) and shifts the constant up to an
    envelope, reporting the effective tau.
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
    anchor = build.base_sup / build.scales[0]
    for q in range(n_max + 1):
        bound = anchor
        for k in range(q):
            bound *= build.base_norm_c / build.scales[1 + k]
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
