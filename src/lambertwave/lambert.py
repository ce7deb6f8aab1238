"""Principal branch of the Lambert W function on [0, inf).

W(x) solves w * exp(w) = x.  Values come from Halley's iteration (Corless,
Gonnet, Hare, Jeffrey, Knuth, "On the Lambert W Function", Adv. Comput.
Math. 5 (1996), eq. 5.9) in numpy (``_halley``), and every call certifies
them by the residual of the defining identity.  On x >= e the two-sided
sandwich

    log x - log(log x) <= W(x) <= log x - (1/2) log(log x)

(Hoorfar & Hassani, JIPAM 9(2), 2008) turns W into elementary terms;
``lambert_table.csv`` writes both bounds beside W.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DomainError

_RESIDUAL_TOL = 1e-13  # largest |w e^w - x| / max(1, x) a value may leave
_STEP_TOL = 1e-8  # Halley stops once its step is at most this times |w|
_PADE_BELOW = 1.5  # the (3, 2) Pade start below it, log x - log log x above
_MAX_STEPS = 100  # Halley steps at most; a value still moving fails the residual gate


def _halley(x: np.ndarray) -> np.ndarray:
    """W(x) for finite x >= 0 (1-D), within 2 ulp of scipy's ``lambertw``
    on {0} and [1e-300, 1e300] (tests/test_lambert.py).

    The start is the (3, 2) Pade approximant at 0 below ``_PADE_BELOW`` and
    the asymptote log x - log log x above (Corless et al., eq. 4.20).  Each
    step is Halley's, written with e^{-w} so that it cannot overflow:

        f = w - x e^{-w},   w <- w - f / (w + 1 - (w + 2) f / (2w + 2)).

    The convergence is cubic, so a step below ``_STEP_TOL`` |w| leaves w at
    its rounding; each value stops at its own first such step, and the
    residual gate of ``lambert_w0`` decides."""
    w = np.zeros_like(x)
    low = x < _PADE_BELOW
    z = x[low]
    w[low] = z * ((12.85106382978723404255 * z + 12.34042553191489361902) * z + 1.0) / (
        (32.53191489361702127660 * z + 14.34042553191489361702) * z + 1.0)
    lx = np.log(x[~low])
    w[~low] = lx - np.log(lx)
    active = np.flatnonzero(x > 0.0)
    for _ in range(_MAX_STEPS):
        if not len(active):
            break
        wa, xa = w[active], x[active]
        f = wa - xa * np.exp(-wa)
        wn = wa - f / (wa + 1.0 - (wa + 2.0) * f / (2.0 * wa + 2.0))
        w[active] = wn
        active = active[np.abs(wn - wa) > _STEP_TOL * np.abs(wn)]
    return w


def lambert_w0(x):
    """Evaluate W on the principal branch for x >= 0.

    Parameters
    ----------
    x : float or array_like
        Nonnegative, finite argument(s).

    Returns
    -------
    float or ndarray
        w >= 0 with |w * exp(w) - x| <= ``_RESIDUAL_TOL`` * max(1, x),
        ``_RESIDUAL_TOL`` = 1e-13.

    Raises
    ------
    DomainError
        For negative or non-finite input.
    ConvergenceError
        If a value misses the residual tolerance; the exception carries the
        worst residual.
    """
    scalar = np.isscalar(x)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xa)):
        raise DomainError("lambert_w0 requires finite input")
    if np.any(xa < 0):
        raise DomainError("lambert_w0 is restricted to x >= 0")
    w = _halley(xa.ravel()).reshape(xa.shape)
    worst = float(np.max(np.abs(w * np.exp(w) - xa) / np.maximum(1.0, xa)))
    if not worst <= _RESIDUAL_TOL:
        raise ConvergenceError(
            f"residual {worst:.3e} exceeds tolerance {_RESIDUAL_TOL:.0e}",
            residual=worst,
        )
    return float(w[0]) if scalar else w
