"""Principal branch of the Lambert W function on [0, inf).

W(x) solves w * exp(w) = x.  Values come from ``scipy.special.lambertw``
(the Halley iteration of Corless, Gonnet, Hare, Jeffrey, Knuth, "On the
Lambert W Function", Adv. Comput. Math. 5 (1996)), and every call
certifies them by the residual of the defining identity.  On x >= e the
two-sided sandwich

    log x - log(log x) <= W(x) <= log x - (1/2) log(log x)

(Hoorfar & Hassani, JIPAM 9(2), 2008) turns W into elementary terms;
``lambert_table.csv`` writes both bounds beside W.
"""

from __future__ import annotations

import numpy as np
import scipy.special

from .errors import ConvergenceError, DomainError

_RESIDUAL_TOL = 1e-13  # largest |w e^w - x| / max(1, x) a value may leave


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
    w = scipy.special.lambertw(xa).real
    worst = float(np.max(np.abs(w * np.exp(w) - xa) / np.maximum(1.0, xa)))
    if not worst <= _RESIDUAL_TOL:
        raise ConvergenceError(
            f"residual {worst:.3e} exceeds tolerance {_RESIDUAL_TOL:.0e}",
            residual=worst,
        )
    return float(w[0]) if scalar else w

