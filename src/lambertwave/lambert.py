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


def lambert_w0(x):
    """Evaluate W on the principal branch for x >= 0.

    Parameters
    ----------
    x : float or array_like
        Nonnegative, finite argument(s).

    Returns
    -------
    float or ndarray
        w >= 0 with |w * exp(w) - x| <= 1e-13 * max(1, x).

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
    if not worst <= 1e-13:
        raise ConvergenceError(
            f"residual {worst:.3e} exceeds tolerance 1e-13",
            residual=worst,
        )
    return float(w[0]) if scalar else w

