"""Weight sequences p^(tau * p^sigma), their property audits, and the
associated (Legendre-type) function in exact-sup and Lambert-asymptotic form.

All sequence arithmetic is done on logarithms: the raw entries overflow
double precision already at small p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InputError, VerificationError
from .lambert import lambert_w0

_E = float(np.e)
_P_CAP = 200000  # last p the associated-function scan may reach
_FIRST_CHUNK = 2 ** 6  # p per numpy pass of that scan, doubling ...
_CHUNK = 2 ** 16  # ... up to this


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


def assoc_t_exact(k: float, params: SequenceParams) -> AssocFnReport:
    """Exact associated-function value sup_p max(0, p log k - log M_p).

    The scan terminates once the term has decreased on three consecutive p
    past the running maximum: for sigma > 1 the term is eventually strictly
    decreasing, and the margin guards short plateaus.  A scan that reaches
    p = 200000 without terminating raises ConvergenceError: its running
    maximum need not be the sup.

    The terms are computed in numpy chunks of 64, 128, ... up to 2^16 p, and
    the walk's state (running maximum, its first p, previous term, drops
    since the last new maximum) is carried from chunk to chunk: the result
    is the p-by-p walk's, bit for bit.
    """
    if not (np.isfinite(k) and k > 0):
        raise DomainError(f"k must be positive, got {k}")
    lk = math.log(k)
    best, best_p = 0.0, 0
    prev = 0.0  # term at p = 0
    drops = 0
    lo, size = 1, _FIRST_CHUNK
    while True:
        if lo > _P_CAP:
            raise ConvergenceError(
                f"associated-function scan at k = {k:.6g} reached the cap "
                f"p = {_P_CAP} before passing its maximum (best p = {best_p})"
            )
        p = np.arange(lo, min(lo + size, _P_CAP + 1), dtype=float)
        term = p * lk - log_m(p, params)
        # a new maximum beats the running maximum of everything before it
        before = np.empty_like(term)
        before[0] = best
        before[1:] = np.maximum(np.maximum.accumulate(term[:-1]), best)
        new = term > before
        earlier = np.concatenate([[prev], term[:-1]])
        # drops since the last new maximum (the count carried in before it)
        ndrop = np.cumsum(~new & (term < earlier))
        last = np.maximum.accumulate(np.where(new, np.arange(len(term)), -1))
        run = ndrop - np.where(last >= 0, ndrop[np.maximum(last, 0)], -drops)
        stop = np.flatnonzero(run >= 3)
        end = stop[0] + 1 if len(stop) else len(term)
        i = int(np.argmax(term[:end]))
        if term[i] > best:
            best, best_p = float(term[i]), lo + i
        if len(stop):
            break
        prev, drops = float(term[-1]), int(run[-1])
        lo += len(term)
        size = min(2 * size, _CHUNK)

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
