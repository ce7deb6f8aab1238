"""Weight sequences p^(tau * p^sigma) and their associated (Legendre-type)
function in exact-sup and Lambert-asymptotic form.

All sequence arithmetic is done on logarithms: the raw entries overflow
double precision already at small p.  The exact sup is a bracketed search
(``first_index``) for the first p where the concave term p log k - log M_p
stops rising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .lambert import lambert_w0

_E = float(np.e)
_P_CAP = 200000  # the associated function's argmax must lie at or below _P_CAP - 3
SIGMA_MAX = 1024.0  # below it 2^sigma, the p^sigma of p = 2, is a finite double


def log_m2(tau: float, sigma: float) -> float:
    """log M_2 = tau 2^sigma log 2, for sigma < SIGMA_MAX; inf where the
    product leaves double precision."""
    return tau * 2.0 ** sigma * math.log(2.0)


@dataclass(frozen=True)
class SequenceParams:
    """The (tau, sigma) pair parameterizing the weight sequence; sigma = 1,
    the classical factorial-power (Gevrey) scale, is excluded, and so is a
    pair whose log M_2 is not a finite double."""

    tau: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise DomainError(f"tau must be positive, got {self.tau}")
        if not 1.0 + 1e-12 <= self.sigma < SIGMA_MAX:
            raise DomainError(f"sigma must lie in (1, {SIGMA_MAX:g}), got {self.sigma}")
        if not math.isfinite(log_m2(self.tau, self.sigma)):
            raise DomainError(
                f"log M_2 = tau 2^sigma log 2 overflows at tau = {self.tau}, "
                f"sigma = {self.sigma}"
            )


def log_m(p, params: SequenceParams):
    """log of the weight-sequence entry: tau * p^sigma * log p, zero at p in {0, 1}.

    An entry past double precision is inf, which every sup over p of
    p log k - log M_p reads correctly: its term is below any finite one.
    """
    pa = np.asarray(p, dtype=float)
    with np.errstate(over="ignore"):
        out = np.where(
            pa >= 2.0,
            params.tau * pa ** params.sigma * np.log(np.maximum(pa, 2.0)),
            0.0,
        )
    return float(out) if np.isscalar(p) else out


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


# ---------------------------------------------------------------------------
# Comparison envelopes (used only by the verification fits)
# ---------------------------------------------------------------------------

def moritoh_l(x, sigma: float):
    """Log comparator l_{1,sigma}(x) = (log x)^sigma, for x > 1."""
    lx = np.log(np.asarray(x, dtype=float))
    if np.any(lx <= 0):
        raise DomainError("log comparator needs x > 1")
    out = lx ** sigma
    return float(out) if np.isscalar(x) else out


def comparison_envelopes(x, sigma: float) -> dict:
    """Negated log-envelopes of the literature decay classes, tabulated.

    Returns -log of each comparator bound (up to constants): exponential |x|,
    factorial-scale |x|^(1/s') for s' in {2, 3} and the log form
    x / l_{1,sigma}(x).  The Lambert regressor itself is ``lambert_regressor``.
    """
    xa = np.asarray(x, dtype=float)
    return {
        "exp": xa,
        "gevrey2": xa ** 0.5,
        "gevrey3": xa ** (1.0 / 3.0),
        "moritoh": xa / moritoh_l(xa, sigma),
    }
