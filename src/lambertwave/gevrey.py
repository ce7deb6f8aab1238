"""Weight sequences p^(tau * p^sigma), their property audits, and the
associated (Legendre-type) function in exact-sup and Lambert-asymptotic form.

All sequence arithmetic is done on logarithms: the raw entries overflow
double precision already at small p.  The exact sup is a bracketed search
(``first_index``) for the first p where the concave term p log k - log M_p
stops rising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InputError, VerificationError
from .lambert import lambert_w0

_E = float(np.e)
_P_CAP = 200000  # the associated function's argmax must lie at or below _P_CAP - 3


@dataclass(frozen=True)
class SequenceParams:
    """The (tau, sigma) pair parameterizing the weight sequence.

    sigma = 1 collapses to the classical factorial-power (Gevrey) scale and
    is permitted only for comparison envelopes via ``allow_gevrey``.
    """

    tau: float
    sigma: float
    allow_gevrey: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise DomainError(f"tau must be positive, got {self.tau}")
        floor = 1.0 if self.allow_gevrey else 1.0 + 1e-12
        if not (np.isfinite(self.sigma) and self.sigma >= floor):
            raise DomainError(
                f"sigma must be > 1 (or == 1 with allow_gevrey), got {self.sigma}"
            )


def log_m(p, params: SequenceParams):
    """log of the weight-sequence entry: tau * p^sigma * log p, zero at p in {0, 1}."""
    pa = np.asarray(p, dtype=float)
    out = np.where(
        pa >= 2.0,
        params.tau * pa ** params.sigma * np.log(np.maximum(pa, 2.0)),
        0.0,
    )
    return float(out) if np.isscalar(p) else out


@dataclass(frozen=True)
class SeqAuditReport:
    """Outcome of the sequence property audit."""

    log_convex_ok: bool
    ratio_bound_ok: bool
    min_log_c: float          # minimal feasible log C in the split-index bound
    quasianalytic: bool       # sigma == 1 and tau <= 1: the ratio sum diverges
    notes: str = ""


def seq_property_audit(params: SequenceParams, p_max: int) -> SeqAuditReport:
    """Audit log-convexity, the ratio decay bound, and the split-index bound.

    The split-index bound asks for a finite C with

        log M_{p+q} <= (p^sigma + q^sigma) log C
                       + log M_p^{(2^{sigma-1} tau)} + log M_q^{(2^{sigma-1} tau)}

    for all p, q <= p_max; the minimal feasible log C over the audited range
    is reported.  Any violated inequality raises VerificationError naming the
    offending index.
    """
    if p_max < 3:
        raise InputError(f"p_max must be >= 3, got {p_max}")
    sig, tau = params.sigma, params.tau
    ps = np.arange(p_max + 1)
    lm = log_m(ps, params)

    # (log-convexity) 2 log M_p <= log M_{p-1} + log M_{p+1}, interior p.
    mid = 2.0 * lm[1:-1]
    sides = lm[:-2] + lm[2:]
    conv_ok = bool(np.all(mid <= sides + 1e-9 * np.maximum(1.0, np.abs(sides))))
    if not conv_ok:
        p_bad = int(np.argmax(mid - sides) + 1)
        raise VerificationError(
            f"log-convexity fails at p={p_bad}", detail=("p", p_bad)
        )

    # ratio decay: log(M_{p-1}/M_p) <= -tau (p-1)^(sigma-1) log(2p).
    # For sigma > 1 the p = 1 exponent is exactly 0; at sigma = 1 (flagged
    # Gevrey comparison) the claim starts at p = 2.
    p_lo = 1 if sig > 1.0 else 2
    p_in = ps[p_lo:]
    lhs = lm[p_lo - 1:-1] - lm[p_lo:]
    rhs = -tau * (p_in - 1.0) ** (sig - 1.0) * np.log(2.0 * p_in)
    ratio_ok = bool(np.all(lhs <= rhs + 1e-9 * np.maximum(1.0, np.abs(rhs))))
    if not ratio_ok:
        p_bad = int(np.argmax(lhs - rhs) + 1)
        raise VerificationError(
            f"ratio bound fails at p={p_bad}", detail=("p", p_bad)
        )

    # split-index bound: minimal feasible log C over p, q <= p_max.
    doubled = SequenceParams(2.0 ** (sig - 1.0) * tau, sig, params.allow_gevrey)
    lm2 = log_m(ps, doubled)
    lm_ext = log_m(np.arange(2 * p_max + 1), params)
    min_log_c = 0.0
    for p in range(p_max + 1):
        for q in range(p_max + 1):
            denom = float(p) ** sig + float(q) ** sig
            if denom == 0.0:
                continue  # p = q = 0: both sides vanish, any C >= 1 works
            need = (lm_ext[p + q] - lm2[p] - lm2[q]) / denom
            min_log_c = max(min_log_c, need)

    quasi = abs(sig - 1.0) < 1e-12 and tau <= 1.0
    notes = "quasianalytic regime: ratio sum diverges" if quasi else ""
    return SeqAuditReport(
        log_convex_ok=conv_ok,
        ratio_bound_ok=ratio_ok,
        min_log_c=min_log_c,
        quasianalytic=quasi,
        notes=notes,
    )


@dataclass(frozen=True)
class AssocFnReport:
    """Exact sup value of the associated function at one argument, with the
    Lambert-form asymptote and their ratio (nan where k <= e)."""

    k: float
    t_exact: float
    argmax_p: int
    t_asym: float
    ratio: float


def first_index(pred, cap: int):
    """The first p in [0, cap] with pred(p), for a pred that is false below
    some index and true from it on: doubling from p = 1, then bisection.
    None if pred(cap) is false."""
    if pred(0):
        return 0
    lo, hi = 0, 1
    while not pred(hi):
        if hi >= cap:
            return None
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi


def assoc_t_exact(k: float, params: SequenceParams) -> AssocFnReport:
    """Exact associated-function value sup_p max(0, p log k - log M_p).

    log M_p is convex in p, so the term p log k - log M_p is concave and its
    sup sits at the first p where it stops rising, found by ``first_index``
    (Komatsu, Ultradistributions I, 1973).  The term is 0 at p = 0, so the
    sup is never negative.  An argmax past ``_P_CAP - 3`` raises
    ConvergenceError.
    """
    if not (np.isfinite(k) and k > 0):
        raise DomainError(f"k must be positive, got {k}")
    lk = math.log(k)

    def term(p):
        p = np.asarray(p, dtype=float)
        return p * lk - log_m(p, params)

    def falls(p):
        t = term([p, p + 1])
        return t[1] <= t[0]

    best_p = first_index(falls, _P_CAP - 3)
    if best_p is None:
        raise ConvergenceError(
            f"associated-function search at k = {k:.6g} passes the cap "
            f"p = {_P_CAP - 3} before reaching its maximum"
        )
    best = float(term([best_p])[0])

    if k > _E:
        ta = assoc_t_asym(k, params.sigma)
        scale = params.tau ** (-1.0 / (params.sigma - 1.0))
        ratio = best / (scale * ta) if ta > 0 else float("nan")
    else:
        ta, ratio = float("nan"), float("nan")
    return AssocFnReport(k=float(k), t_exact=best, argmax_p=best_p, t_asym=ta, ratio=ratio)


def lambert_regressor(x, sigma: float):
    """T_sigma(x) = log(x)^(sigma/(sigma-1)) / W(log x)^(1/(sigma-1)), x > 1.

    For sigma near 1 the powers leave double precision: a T_sigma that is
    not finite raises DomainError.
    """
    lk = np.log(np.asarray(x, dtype=float))
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = lk ** (sigma / (sigma - 1.0)) / lambert_w0(lk) ** (1.0 / (sigma - 1.0))
    except OverflowError:
        out = np.inf
    if not np.all(np.isfinite(out)):
        raise DomainError(
            f"T_sigma overflows double precision at sigma = {sigma} "
            f"(exponent 1/(sigma-1) = {1.0 / (sigma - 1.0):.4g})"
        )
    return out


def assoc_t_asym(k, sigma: float):
    """Lambert-form asymptote T_sigma(k) of the associated function, k > e."""
    if sigma <= 1.0:
        raise DomainError(f"sigma must exceed 1, got {sigma}")
    ka = np.asarray(k, dtype=float)
    if np.any(~np.isfinite(ka)) or np.any(ka <= _E):
        raise DomainError("asymptotic form requires k > e")
    out = lambert_regressor(ka, sigma)
    return float(out) if np.isscalar(k) else out


@dataclass(frozen=True)
class BoundFitReport:
    """Empirical two-sided bound witness: the ratio band of exact over
    scaled-asymptotic values across a grid."""

    params: SequenceParams
    k_grid: np.ndarray
    ratios: np.ndarray
    r_min: float
    r_max: float
    band: float


def fit_assoc_bounds(
    params: SequenceParams, k_grid, band_limit: float = 10.0
) -> BoundFitReport:
    """Ratio band of t_exact / (tau^(-1/(sigma-1)) * t_asym) over a log grid.

    The grid must hold at least 20 points inside [1e2, 1e14].  A band wider
    than ``band_limit`` (multiplicative) raises VerificationError.
    """
    ks = np.atleast_1d(np.asarray(k_grid, dtype=float))
    if len(ks) < 20:
        raise InputError(f"need at least 20 grid points, got {len(ks)}")
    if np.any(ks < 1e2) or np.any(ks > 1e14):
        raise InputError("grid must lie within [1e2, 1e14]")
    ratios = np.array([assoc_t_exact(float(k), params).ratio for k in ks])
    r_min, r_max = float(np.min(ratios)), float(np.max(ratios))
    band = r_max / r_min
    if not np.isfinite(band) or band > band_limit:
        raise VerificationError(
            f"ratio band {band:.3f} exceeds limit {band_limit}", detail=band
        )
    return BoundFitReport(
        params=params, k_grid=ks, ratios=ratios, r_min=r_min, r_max=r_max, band=band
    )


# ---------------------------------------------------------------------------
# Comparison envelopes (used only by the verification fits)
# ---------------------------------------------------------------------------

def moritoh_l(x, n: int, sigma: float):
    """Iterated-log comparator l_{n,sigma}(x) = log x * ... * (log_n x)^sigma.

    log_j is the j-fold iterated natural log; requires x large enough that
    every iterate is positive.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    xa = np.asarray(x, dtype=float)
    out = np.ones_like(xa)
    cur = np.log(xa)
    for _ in range(n - 1):
        if np.any(cur <= 0):
            raise DomainError("iterated log undefined on this range")
        out = out * cur
        cur = np.log(cur)
    if np.any(cur <= 0):
        raise DomainError("iterated log undefined on this range")
    out = out * cur ** sigma
    return float(out) if np.isscalar(x) else out


def comparison_envelopes(x, sigma: float) -> dict:
    """Negated log-envelopes of the literature decay classes, tabulated.

    Returns -log of each comparator bound (up to constants): exponential |x|,
    factorial-scale |x|^(1/s') for s' in {2, 3} and the iterated-log form
    x / l_{1,sigma}(x).  The Lambert regressor itself is ``lambert_regressor``.
    """
    xa = np.asarray(x, dtype=float)
    return {
        "exp": xa,
        "gevrey2": xa ** 0.5,
        "gevrey3": xa ** (1.0 / 3.0),
        "moritoh": xa / moritoh_l(xa, 1, sigma),
    }
