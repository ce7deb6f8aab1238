"""Weight sequences p^(tau * p^sigma), their associated (Legendre-type)
function as an exact sup, and its Lambert-form asymptote T_sigma
(``lambert_regressor``), which the decay fit also regresses on.

All sequence arithmetic is done on logarithms: the raw entries overflow
double precision already at small p.  The exact sup is a bracketed search
(``first_index``) for the first p where the concave term p log k - log M_p
stops rising, over every p at which p and p + 1 are exact doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lambert import lambert_w0

_P_MAX = 2 ** 53 - 1  # the last p with p and p + 1 exact doubles
SIGMA_MIN = 1.0 + 1e-12  # sigma = 1, the Gevrey scale, and just above it are excluded
SIGMA_MAX = 1024.0  # below it 2^sigma, the p^sigma of p = 2, is a finite double


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
        if not SIGMA_MIN <= self.sigma < SIGMA_MAX:
            raise DomainError(f"sigma must lie in [{SIGMA_MIN!r}, {SIGMA_MAX:g}), got {self.sigma}")
        if not math.isfinite(self.tau * 2.0 ** self.sigma * math.log(2.0)):  # log M_2
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


def _log_m_step(p: int, params: SequenceParams) -> float:
    """log M_{p+1} - log M_p, formed without cancellation: for p >= 2 it is
    tau p^sigma (expm1(sigma log1p(1/p)) log(p + 1) + log1p(1/p)).  The
    difference of the two logs loses all its digits once log M_p is far
    larger than the step (p near 1e11 at sigma = 1.001)."""
    if p < 2:
        return log_m(p + 1, params)
    x = math.log1p(1.0 / p)
    with np.errstate(over="ignore"):
        scale = params.tau * np.float64(p) ** params.sigma
    return float(scale * (math.expm1(params.sigma * x) * math.log(p + 1) + x))


@dataclass(frozen=True)
class AssocFnReport:
    """Exact sup value of the associated function at one argument, with the
    Lambert-form asymptote T_sigma(k), nan where k <= e and where it is not
    a finite double, and the ratio of the sup to tau^(-1/(sigma-1))
    T_sigma(k), nan where that scaled asymptote is not a positive finite
    double."""

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
    sup sits at the first p where it stops rising, log k <= log M_{p+1} -
    log M_p, found by ``first_index`` (Komatsu, Ultradistributions I,
    1973).  The term is 0 at p = 0, so the sup is never negative.  An
    argmax past ``_P_MAX`` = 2^53 - 1, where integers stop being exact
    doubles, raises DomainError.  ``t_asym`` and ``ratio`` are nan where
    T_sigma(k) is not a finite double.
    """
    if not (np.isfinite(k) and k > 0):
        raise DomainError(f"k must be positive, got {k}")
    lk = math.log(k)
    best_p = first_index(lambda p: lk <= _log_m_step(p, params), _P_MAX)
    if best_p is None:
        raise DomainError(
            f"associated-function argmax at k = {k:.6g}, tau = {params.tau:g}, "
            f"sigma = {params.sigma:g} lies past p = 2^53 - 1, where integers "
            f"stop being exact doubles"
        )
    best = best_p * lk - log_m(best_p, params)

    ta = ratio = float("nan")
    if k > math.e:
        try:
            ta = float(lambert_regressor(k, params.sigma))
        except DomainError:  # T_sigma(k) is past double precision: nan
            pass
        try:  # the scaled asymptote tau^(-1/(sigma-1)) T_sigma(k)
            scaled = params.tau ** (-1.0 / (params.sigma - 1.0)) * ta
        except OverflowError:
            scaled = math.inf
        if 0.0 < scaled < math.inf:
            ratio = best / scaled
    return AssocFnReport(k=float(k), t_exact=best, argmax_p=best_p, t_asym=ta, ratio=ratio)


def lambert_regressor(x, sigma: float):
    """T_sigma(x) = log(x)^(sigma/(sigma-1)) / W(log x)^(1/(sigma-1)), x > 1,
    the associated function's asymptote (Pilipovic, Teofanov & Tomic, 2016).

    A sigma <= 1 raises DomainError, and so do an x <= 1, where W(log x) <= 0,
    and a T_sigma that is not finite: for sigma near 1 the powers leave
    double precision.
    """
    if not sigma > 1.0:
        raise DomainError(f"T_sigma needs sigma > 1, got {sigma}")
    xa = np.asarray(x, dtype=float)
    if not np.all(xa > 1.0):
        raise DomainError(f"T_sigma needs every x > 1; got {float(np.min(xa)):.6g}")
    lk = np.log(xa)
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

