"""Numerical certification: orthonormality, completeness, decay-law fits,
and the mixed moment-derivative bound audit.

All operations are read-only over their inputs and deterministic; pairwise
inner products reduce to scale-free integrals so equivalent pairs share one
quadrature (bitwise-identical values by construction).  Each gate, and
each extent (the Gram and dyadic windows, the mixed LP's orders, and the
decay fit's points and orders, which its caller samples), is a module
constant: the functions take their data and nothing else.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .bell import BellEvaluator
from .errors import DomainError, InputError, VerificationError
from .gevrey import lambert_regressor
from .grids import GridFunction

_BAND_QUAD = 2 ** 13 + 1  # trapezoid nodes across the positive band
_TABLE_ROWS = 16  # rows n of the completeness quadrature table made at a time
_GRAM_M = (-2, 2)  # the Gram window's scales m ...
_GRAM_N = (-8, 8)  # ... and translations n: 85 members, 3,655 pairs
_GRAM_TOL = 1e-7  # largest Gram deviation from the identity
_DYADIC_M = 6  # the dyadic sum runs over the scales |m| <= _DYADIC_M
_DYADIC_TOL = 1e-9  # largest deviation of the dyadic sum from 1
_COMPLETENESS_TOL = 1e-3  # largest deviation of the energy ratio from 1
_COMPLETENESS_CAP = 256  # most translations a completeness scale may need
_R2_MIN = 0.9  # least r^2 of the decay fits of psi and of its derivatives
_ENV_FLOOR = 1e-15  # envelope windows whose max is at or below it are dropped
FIT_POINTS_MIN = 30  # least number of the decay fit's usable points
FIT_SPAN_MIN = 99.0  # least x_last / x_first of the decay fit's usable points: 2 decades
_DERIV_POINTS_MIN = 10  # least number of a derivative decay check's usable points
FIT_X = (1e2, 3e4, 36)  # the decay fit's points: 36 log-spaced x over [1e2, 3e4]
DERIV_ORDERS = (1, 2, 4, 8)  # the derivative orders the decay fit also regresses
MIXED_MAX = 8  # the mixed LP's orders k, q <= MIXED_MAX: 81 rows


# ---------------------------------------------------------------------------
# Inner products and the Gram matrix
# ---------------------------------------------------------------------------

def inner_product(
    ph: BellEvaluator,
    idx1: Tuple[int, int],
    idx2: Tuple[int, int],
    n_quad: int = 2 ** 14 + 1,
) -> complex:
    """(1/2pi) Int F conj(G) for the members F, G of dyadic index (m, n),
    by the trapezoid rule over the smaller member's support.  Members two or
    more octaves apart have disjoint bands and give exactly 0.  Only the
    ordered pair idx1 <= idx2 is integrated; the swapped pair is its exact
    conjugate, as in ``gram_matrix``, and a member's square norm is real."""
    if idx2 < idx1:
        return inner_product(ph, idx2, idx1, n_quad).conjugate()
    (m1, n1), (m2, n2) = idx1, idx2
    hi = ph.band[1] * 2.0 ** min(m1, m2)
    u = np.linspace(-hi, hi, n_quad)
    integrand = ph.psi_hat_at(u, m=m1, n=n1) * np.conj(ph.psi_hat_at(u, m=m2, n=n2))
    val = complex(np.trapezoid(integrand, dx=u[1] - u[0]) / (2.0 * np.pi))
    return complex(val.real) if idx1 == idx2 else val


@dataclass
class GramReport:
    """Pairwise inner products over a dyadic index window: column j of
    ``pairs`` holds (m1, n1, m2, n2) of the pair whose value is
    ``values[j]``."""

    max_offdiag: float
    max_diag_dev: float
    pairs: np.ndarray
    values: np.ndarray


def gram_matrix(ph: BellEvaluator) -> GramReport:
    """All pairwise member inner products over the index window m in
    ``_GRAM_M``, n in ``_GRAM_N``, for the members ordered by (m, n) and
    each pair once, the first member no later than the second.

    Scale pairs two or more octaves apart have disjoint frequency bands and
    are exactly zero.  Same-scale values depend only on the translation
    difference and adjacent-scale values only on 2*n1 - n2 (exact identities
    under the scale-free substitution), so each distinct value is computed
    once.  A deviation from the identity above ``_GRAM_TOL`` raises
    VerificationError naming the worst pair.
    """
    m_lo, m_hi = _GRAM_M
    n_lo, n_hi = _GRAM_N
    n_count = n_hi - n_lo + 1

    # same scale: (1/pi) Re Int_+ b^2 e^{i d u} du at d = n2 - n1 >= 0; the
    # pair's value is its conjugate, of imaginary part -0
    band = np.linspace(*ph.band, _BAND_QUAD)
    b2 = ph.bell_at(band) ** 2
    du = band[1] - band[0]
    same = np.array([
        np.trapezoid(b2 * np.exp(1j * d * band), dx=du).real / np.pi
        for d in range(n_count)
    ])

    # adjacent scales: (2^{-1/2}/pi) Re Int_+ b(u) b(u/2) e^{i(mu + 1/4)u} du,
    # mu = n1 - n2/2; u runs over the upper band where both bells live
    band2 = np.linspace(2.0 * ph.band[0], ph.band[1], _BAND_QUAD)
    bb = ph.bell_at(band2) * ph.bell_at(band2 / 2.0)
    du2 = band2[1] - band2[0]
    key_lo = 2 * n_lo - n_hi  # key = 2 n1 - n2
    adj = np.array([
        2.0 ** (-0.5) * np.trapezoid(
            bb * np.exp(1j * (key / 2.0 + 0.25) * band2), dx=du2
        ).real / np.pi
        for key in range(key_lo, 2 * n_hi - n_lo + 1)
    ])

    m, n = np.divmod(np.arange((m_hi - m_lo + 1) * n_count), n_count)
    i, j = np.triu_indices(len(m))
    pairs = np.stack([m[i] + m_lo, n[i] + n_lo, m[j] + m_lo, n[j] + n_lo])
    m1, n1, m2, n2 = pairs
    values = np.zeros(pairs.shape[1], dtype=complex)  # disjoint bands: 0
    at = m1 == m2
    values.real[at] = same[n2[at] - n1[at]]
    values.imag[at] = -0.0
    at = m2 == m1 + 1
    values.real[at] = adj[2 * n1[at] - n2[at] - key_lo]

    diag = i == j
    dev = np.where(diag, np.abs(values - 1.0), np.abs(values))
    max_diag = float(np.max(dev[diag]))
    max_off = float(np.max(dev[~diag], initial=0.0))
    k = int(np.argmax(dev))
    if dev[k] > _GRAM_TOL:
        worst = ((int(m1[k]), int(n1[k])), (int(m2[k]), int(n2[k])), float(dev[k]))
        raise VerificationError(
            f"gram deviation exceeds {_GRAM_TOL:.1e}: pair {worst[0]} / {worst[1]} "
            f"at {worst[2]:.3e}",
            detail=worst,
        )
    return GramReport(max_offdiag=max_off, max_diag_dev=max_diag, pairs=pairs,
                      values=values)


# ---------------------------------------------------------------------------
# Dyadic partition and completeness
# ---------------------------------------------------------------------------

@dataclass
class DyadicReport:
    xi: np.ndarray
    s: np.ndarray
    max_dev: float


def dyadic_sum_check(
    ph: BellEvaluator,
    xi_grid: Optional[np.ndarray] = None,
) -> DyadicReport:
    """s(xi) = sum_{|m| <= _DYADIC_M} |psi_hat(2^m xi)|^2 must equal 1 to
    ``_DYADIC_TOL`` on the covered dyadic range (xi = 0 is excluded: the
    sum vanishes there)."""
    if xi_grid is None:
        base = np.linspace(ph.band[0] + 1e-3, ph.band[1] - 1e-3, 601)
        xi_grid = np.concatenate([base * 2.0 ** j for j in range(-5, 6)])
    xi_grid = np.asarray(xi_grid, dtype=float)
    if np.any(np.abs(xi_grid) < 1e-9):
        raise InputError("dyadic grid must avoid xi = 0")
    s = np.zeros_like(xi_grid)
    for m in range(-_DYADIC_M, _DYADIC_M + 1):
        s += ph.bell_at(2.0 ** m * xi_grid) ** 2
    max_dev = float(np.max(np.abs(s - 1.0)))
    if max_dev > _DYADIC_TOL:
        i = int(np.argmax(np.abs(s - 1.0)))
        raise VerificationError(
            f"dyadic sum deviates by {max_dev:.3e} at xi = {xi_grid[i]:.6f}",
            detail=float(xi_grid[i]),
        )
    return DyadicReport(xi=xi_grid, s=s, max_dev=max_dev)


def gaussian_spectrum() -> Callable:
    """The completeness check's test spectrum: the Gaussian of centre 4 and
    width 1 on the band 1 <= |xi| <= 10, 0 off it (even, real: a real-valued
    signal)."""

    def fhat(xi):
        ax = np.abs(np.asarray(xi, dtype=float))
        out = np.exp(-((ax - 4.0) ** 2) / 2.0)
        return np.where((ax >= 1.0) & (ax <= 10.0), out, 0.0).astype(complex)

    fhat.band = (1.0, 10.0)
    return fhat


@dataclass
class CompletenessReport:
    ratio: float
    n_used: Dict[int, int]


def _increments(gs: np.ndarray, gd: np.ndarray, pref: float, rows: Callable):
    """|pref (c_n + d_n)|^2 + |pref (c_-n + d_-n)|^2 for n = 0, 1, 2, ...
    (the n = 0 term once), with c_n and d_n the trapezoid integrals of g+
    e^{-inu} and g- e^{inu}.  ``gs`` and ``gd`` are the weighted sum and
    difference of g+ and g-, and ``rows(b)`` gives cos nu and sin nu on the
    b-th block of rows n: c_{+-n} + d_{+-n} = X -+ iY with
    X = sum cos(nu) gs and Y = sum sin(nu) gd."""
    for b in itertools.count():
        cos_nu, sin_nu = rows(b)
        x = (cos_nu * gs).sum(axis=1)
        iy = 1j * (sin_nu * gd).sum(axis=1)
        pos = np.abs(pref * (x - iy)) ** 2
        neg = np.abs(pref * (x + iy)) ** 2
        for k in range(len(pos)):
            yield float(pos[k]) if b == k == 0 else float(pos[k]) + float(neg[k])


def completeness_check(
    ph: BellEvaluator,
    f_hat: Optional[Callable] = None,
) -> CompletenessReport:
    """Recovered energy fraction sum |<f, member>|^2 / ||f||^2 over the
    scales |m| <= 4, for f the ``gaussian_spectrum`` unless ``f_hat`` is
    given; ``f_hat.band = (lo, hi)``, with no default, bounds its support.

    Translations are added symmetrically until the partial sums move by less
    than 1e-5 (relative).  A scale that passes ``_COMPLETENESS_CAP``
    translations first, or a ratio outside 1 +- ``_COMPLETENESS_TOL``,
    raises VerificationError.

    The coefficients are trapezoid sums over the band nodes u.  The
    quadrature table e^{-inu} = cos nu - i sin nu does not depend on the
    scale or on f: it is made once per call, in blocks of rows n as the
    slowest scale asks for them, and every scale and both signs of n read it
    (e^{inu} is its conjugate).
    """
    if f_hat is None:
        f_hat = gaussian_spectrum()
    if not hasattr(f_hat, "band"):  # ||f||^2 is integrated over |xi| <= band[1] + 1
        raise InputError("f_hat has no band = (lo, hi) to integrate ||f||^2 over")
    ug = np.linspace(-f_hat.band[1] - 1.0, f_hat.band[1] + 1.0, 2 ** 16 + 1)
    f_energy = float(
        np.trapezoid(np.abs(f_hat(ug)) ** 2, dx=ug[1] - ug[0]) / (2.0 * np.pi)
    )

    u_pos = np.linspace(*ph.band, _BAND_QUAD)
    du = u_pos[1] - u_pos[0]
    weights = np.full(_BAND_QUAD, du)
    weights[[0, -1]] = du / 2.0
    psihat_pos = ph.psi_hat_at(u_pos)
    psihat_neg = ph.psi_hat_at(-u_pos)

    table: List[Tuple[np.ndarray, np.ndarray]] = []

    def rows(b: int):
        if b == len(table):
            nu = np.arange(b * _TABLE_ROWS, (b + 1) * _TABLE_ROWS)[:, None] * u_pos
            table.append((np.cos(nu), np.sin(nu)))
        return table[b]

    total = 0.0
    n_used: Dict[int, int] = {}
    for m in range(-4, 5):
        gp = weights * f_hat(2.0 ** m * u_pos) * np.conj(psihat_pos)
        gn = weights * f_hat(-(2.0 ** m) * u_pos) * np.conj(psihat_neg)
        pref = 2.0 ** (m / 2.0) / (2.0 * np.pi)
        ssum = 0.0
        n = 0
        for inc in _increments(gp + gn, gp - gn, pref, rows):
            ssum += inc
            if n > 8 and inc < 1e-5 * f_energy:
                break
            n += 1
            if n > _COMPLETENESS_CAP:
                raise VerificationError(
                    f"completeness at scale m = {m} has not converged after the "
                    f"cap of {_COMPLETENESS_CAP} translations", detail=m,
                )
        n_used[m] = n
        total += ssum

    ratio = total / f_energy
    if abs(ratio - 1.0) > _COMPLETENESS_TOL:
        raise VerificationError(
            f"energy ratio {ratio:.6f} outside 1 +/- {_COMPLETENESS_TOL}", detail=ratio
        )
    return CompletenessReport(ratio=ratio, n_used=n_used)


# ---------------------------------------------------------------------------
# Decay envelopes and fits
# ---------------------------------------------------------------------------

@dataclass
class EnvelopeTable:
    x: np.ndarray
    env: np.ndarray
    usable: np.ndarray
    window: float
    dropped: int


def envelope_window(ph: BellEvaluator) -> float:
    """Envelope window for the wavelet of ``ph``.

    The wavelet oscillates under its envelope, and the band-edge components
    of the bell beat against each other; the window therefore covers both
    one carrier period (2 pi / omega_c, omega_c ~ 3 pi/2) and one full beat
    of the closest edge pair (2 pi / ramp half-width) so the windowed max
    tracks the amplitude, not the beat phase.
    """
    carrier = 2.0 * np.pi / (1.5 * np.pi)
    return max(carrier, 2.0 * np.pi / ph.ramp_half_width)


def window_indices(x_grid, window: float, lattice) -> Tuple[np.ndarray, np.ndarray]:
    """The first and last index of the envelope window centred at each x
    of ``x_grid`` on the nodes x0 + j dx, j < n, of ``lattice`` (a
    ``GridFunction`` or its ``GridSpec``).  A window that leaves the
    lattice, also by more cells than a double holds, is an InputError."""
    x, x0, dx = np.asarray(x_grid, dtype=float), lattice.x0, lattice.dx
    with np.errstate(over="ignore"):
        j0 = np.floor((x - window / 2.0 - x0) / dx)
        j1 = np.ceil((x + window / 2.0 - x0) / dx)
    off = ~((j0 >= 0) & (j1 < lattice.n))
    if np.any(off):
        raise InputError(f"envelope window at x={x[np.argmax(off)]:.3g} leaves the lattice")
    return j0.astype(int), j1.astype(int)


def decay_envelope(
    lattice: GridFunction,
    x_grid: np.ndarray,
    window: float,
    scale: float = 1.0,
) -> EnvelopeTable:
    """Max of |psi| over the ``window`` centred at each grid point (see
    ``envelope_window``), on the samples ``window_indices`` gives.  Points
    whose max sits at or below the floor ``_ENV_FLOOR`` * ``scale`` are
    dropped and counted: psi's fit takes the floor itself, and a derivative
    its floor scaled by max(1, sup).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    vals = lattice.values
    j0, j1 = window_indices(x_grid, window, lattice)
    env = np.array([np.max(np.abs(vals[a:b + 1])) for a, b in zip(j0, j1)])
    usable = env > _ENV_FLOOR * scale
    return EnvelopeTable(
        x=x_grid,
        env=env,
        usable=usable,
        window=float(window),
        dropped=int(np.sum(~usable)),
    )


@dataclass
class DecayFitReport:
    h_fit: float
    h_stderr: float
    intercept: float
    r_squared: float
    x_range: Tuple[float, float]
    shape_checks: Dict[str, bool]
    comparator_table: np.ndarray  # columns per comparator_columns
    comparator_columns: Tuple[str, ...]


def _regress_on_t(x: np.ndarray, y: np.ndarray, sigma: float):
    T = lambert_regressor(x, sigma)
    if np.any(np.diff(T) <= 0):
        raise InputError("decay regressor is not strictly increasing on the range")
    A = np.vstack([T, np.ones_like(T)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    dof = max(len(x) - 2, 1)
    se = math.sqrt(ss_res / dof / float(np.sum((T - np.mean(T)) ** 2)))
    return float(coef[0]), float(coef[1]), r2, se, T


def fit_decay(table: EnvelopeTable, sigma: float) -> DecayFitReport:
    """Regress -log env on the Lambert-form regressor and audit the shape.

    Gates: >= ``FIT_POINTS_MIN`` usable points over 2 decades (``FIT_SPAN_MIN``), a
    positive slope and r^2 >= ``_R2_MIN``.  The monotone-ratio shape checks run where
    adjacent envelope windows are disjoint (overlapping windows can capture
    the same peak twice, flattening the ratio artificially): -log env grows
    faster than any multiple of log x (ratio increasing) yet slower than
    sqrt(x) on the top decade (ratio decreasing).
    """
    xs = table.x[table.usable]
    env = table.env[table.usable]
    if len(xs) < FIT_POINTS_MIN:
        raise VerificationError(f"need >= {FIT_POINTS_MIN} usable envelope points, got {len(xs)}")
    if xs[-1] / xs[0] < FIT_SPAN_MIN:
        raise VerificationError(
            f"usable points span {np.log10(xs[-1] / xs[0]):.2f} decades, need >= 2"
        )
    y = -np.log(env)
    h, icpt, r2, se, T = _regress_on_t(xs, y, sigma)
    if h <= 0:
        raise VerificationError(f"fitted decay slope {h:.4f} is not positive")
    if r2 < _R2_MIN:
        raise VerificationError(f"decay fit r^2 = {r2:.4f} below {_R2_MIN}")

    # shape diagnostics on the window-disjoint subrange
    step = (xs[-1] / xs[0]) ** (1.0 / max(len(xs) - 1, 1))
    disjoint = xs >= table.window / max(step - 1.0, 1e-9)
    xs_d, y_d = xs[disjoint], y[disjoint]
    checks: Dict[str, bool] = {}
    if len(xs_d) >= 3:
        checks["log_ratio_increasing"] = bool(
            np.all(np.diff(y_d / np.log(xs_d)) > 0)
        )
        top = xs_d >= xs_d[-1] / 10.0
        checks["sqrt_ratio_decreasing_top_decade"] = bool(
            np.all(np.diff((y_d / np.sqrt(xs_d))[top]) < 0)
        )
        checks["sublinear"] = bool(np.all(np.diff(y_d / xs_d) < 0))

    return DecayFitReport(
        h_fit=h,
        h_stderr=se,
        intercept=icpt,
        r_squared=r2,
        x_range=(float(xs[0]), float(xs[-1])),
        shape_checks=checks,
        comparator_table=np.column_stack([xs, env, T, np.exp(-(h * T + icpt))]),
        comparator_columns=("x", "env", "T_sigma", "lambert_bound"),
    )


@dataclass
class DerivativeDecayRow:
    n: int
    h_fit: float
    intercept: float
    r_squared: float
    sup: float


def derivative_decay_check(
    lattice: GridFunction,
    n: int,
    x_grid: np.ndarray,
    window: float,
    sigma: float,
) -> DerivativeDecayRow:
    """Envelope regression for the n-th derivative, sampled on ``lattice``;
    it needs >= ``_DERIV_POINTS_MIN`` usable points, a positive slope and
    r^2 >= ``_R2_MIN``.

    The floor, ``_ENV_FLOOR`` times max(1, sup), scales with the
    derivative's sup so the relative noise floor matches the synthesis
    accuracy.
    """
    sup = lattice.sup()
    table = decay_envelope(lattice, x_grid, window=window, scale=max(1.0, sup))
    xs = table.x[table.usable]
    y = -np.log(table.env[table.usable])
    if len(xs) < _DERIV_POINTS_MIN:
        raise VerificationError(f"too few usable envelope points for n={n}")
    h, icpt, r2, _, _ = _regress_on_t(xs, y, sigma)
    if h <= 0:
        raise VerificationError(f"derivative n={n}: slope {h:.4f} not positive")
    if r2 < _R2_MIN:
        raise VerificationError(f"derivative n={n}: r^2 = {r2:.4f} below {_R2_MIN}")
    return DerivativeDecayRow(n=n, h_fit=h, intercept=icpt, r_squared=r2, sup=sup)


# ---------------------------------------------------------------------------
# Mixed moment-derivative bound audit
# ---------------------------------------------------------------------------

@dataclass
class MixedBoundReport:
    sup_table: np.ndarray  # sup_x |x^k psi^(q)(x)|, indexed [k, q]
    log_c: float
    log_a: float
    log_b: float


def linprog(c, A_ub, b_ub, bounds) -> List[float]:
    """The optimum x of: minimize c . x subject to A_ub x <= b_ub and the
    ``bounds`` (lo, hi) on each unknown, for the one shape of LP the mixed
    audit solves, in closed form.  The premise: c puts a positive weight on
    x_0 alone, x_0 is free with coefficient -1 in every row, and every other
    unknown lies in a finite box with coefficients <= 0 in every row.  Then
    row i reads x_0 >= sum_j A_ij x_j - b_i, each such sum is least with
    every x_j at its upper end, and so

        x_0 = max_i (sum_{j >= 1} A_ij hi_j - b_i),   x_j = hi_j,

    an optimum of every such LP: x_0 is free, so none is infeasible.  Any
    other LP raises DomainError, rather than be solved as if it had this
    shape.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    (free, *box) = bounds
    lo, hi = np.array(box, dtype=float).reshape(-1, 2).T
    premise = (
        A.shape == (len(b_ub), len(c)) and len(box) == len(c) - 1
        and c[0] > 0.0 and not np.any(c[1:]) and tuple(free) == (None, None)
        and np.all(A[:, 0] == -1.0) and np.all(A[:, 1:] <= 0.0)
        and np.all(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi))
    )
    if not premise:
        raise DomainError("linprog solves only: minimize x_0 subject to -x_0 + A x <= b, "
                          "with A <= 0 and x in a finite box")
    return [float(np.max(A[:, 1:] @ hi - b_ub)), *map(float, hi)]


def mixed_bound_audit(
    fronts: Iterable[Tuple[np.ndarray, np.ndarray]],
    sigma: float,
) -> MixedBoundReport:
    """Solve for constants (log C, log A, log B) with

        log S(k, q) <= log C + k log A + q log B + log k! + q^sigma log q

    over all k, q <= ``MIXED_MAX``, where S(k, q) = sup over the synthesis
    lattice of |x^k psi^(q)(x)|.  ``fronts`` yields the moment fronts
    (``GridFunction.moment_front``) of the lattices of psi^(0), ...,
    psi^(MIXED_MAX) in order; the sup of |x|^k |psi^(q)| over a front is its
    sup over the whole lattice, and fewer fronts raise InputError.  The LP
    minimizes log C with log A, log B confined to [-40, 40]; a non-finite
    or zero sup raises VerificationError listing the offending pairs.

    On finite positive sups the LP cannot fail.  It minimizes log C alone,
    and log A and log B enter every row with the non-negative coefficients
    k and q, so any feasible point stays feasible at log A = log B = 40.
    The optimum is therefore always that corner, with

        log C = max over (k, q) of [log S(k, q) - slack(k, q) - 40 (k + q)],

    slack(k, q) = log k! + q^sigma log q, which ``linprog`` returns in closed
    form.  A gate on the box edge alone would always fail: a mixed
    certificate that can fail must change the objective, and ``linprog``
    refuses any other.
    """
    n = MIXED_MAX + 1
    fronts = list(itertools.islice(fronts, n))
    if len(fronts) != n:
        raise InputError(f"need {n} fronts (q = 0..{MIXED_MAX}), got {len(fronts)}")
    sup_table = np.array([[np.max(ax ** k * av) for ax, av in fronts] for k in range(n)])

    violations = [
        (k, q)
        for k in range(n)
        for q in range(n)
        if not (np.isfinite(sup_table[k, q]) and sup_table[k, q] > 0)
    ]
    if violations:
        raise VerificationError(
            f"non-finite moment sups at {violations}", detail=violations
        )

    rows, rhs = [], []
    for k in range(n):
        for q in range(n):
            slack = math.lgamma(k + 1.0) + q ** sigma * (
                math.log(q) if q >= 1 else 0.0
            )
            rows.append([-1.0, -float(k), -float(q)])
            rhs.append(slack - math.log(sup_table[k, q]))
    log_c, log_a, log_b = linprog(
        c=[1.0, 0.0, 0.0],
        A_ub=rows,
        b_ub=rhs,
        bounds=[(None, None), (-40.0, 40.0), (-40.0, 40.0)],
    )
    return MixedBoundReport(
        sup_table=sup_table,
        log_c=log_c,
        log_a=log_a,
        log_b=log_b,
    )
