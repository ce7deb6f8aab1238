"""Output checks for the benchmark workloads.

Every check compares an artifact with a computation made apart from the
program, or with a property the construction must have; none compares
with a stored copy of earlier output.  Each returns a list of failure
messages, empty when the artifact passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import lambertw

# Lattice sums of products of band-limited functions are exact integrals;
# what is left is the truncation of psi.csv at |x| <= 512 (psi ~ |x|^-3
# there) and the synthesis's own rounding, both measured near 1e-11.
ORTHO_TOL = 1e-9
# b and the phase are evaluated in closed form by the program: rounding only.
BELL_TOL = 1e-12
LAMBERT_TOL = 1e-13
ASSOC_TOL = 1e-12
MOMENT_TOL = 1e-12
POINT_TOL = 1e-12
ORTHO_SHIFTS = range(-8, 9)


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _lattice(path: Path):
    """Uniform lattice (x0, dx, values) of psi.csv; raises if not uniform."""
    tab = _read_csv(path)
    x, psi = tab[:, 0], tab[:, 1]
    dx = (x[-1] - x[0]) / (len(x) - 1)
    if np.max(np.abs(np.diff(x) - dx)) > 1e-9 * dx:
        raise ValueError(f"{path.name}: abscissae are not a uniform lattice")
    return float(x[0]), float(dx), psi


def check_orthonormality(psi_csv: Path) -> list:
    """||psi|| = 1, <psi, psi(. - n)> = 0 and <psi, sqrt2 psi(2 . - n)> = 0,
    as lattice sums over psi.csv."""
    x0, dx, psi = _lattice(psi_csv)
    n = len(psi)
    errors = []

    def inner(i0, i1, other):
        return float(np.dot(psi[i0:i1], other)) * dx

    norm_dev = abs(math.sqrt(inner(0, n, psi)) - 1.0)
    if norm_dev > ORTHO_TOL:
        errors.append(f"psi.csv: | ||psi|| - 1 | = {norm_dev:.3e}")
    step = 1.0 / dx
    if abs(step - round(step)) > 1e-9:
        raise ValueError("psi.csv: lattice spacing does not divide 1")
    step = int(round(step))
    worst_t = worst_d = 0.0
    for shift in ORTHO_SHIFTS:
        if shift == 0:
            continue
        s = abs(shift) * step
        # <psi, psi(. - n)> pairs sample j with sample j - n / dx
        worst_t = max(worst_t, abs(inner(s, n, psi[:n - s])))
    for shift in ORTHO_SHIFTS:
        # <psi, sqrt2 psi(2 . - n)>: sample j meets sample 2 j + (x0 - n) / dx
        off = int(round((x0 - shift) / dx))
        j = np.arange(n)
        k = 2 * j + off
        ok = (k >= 0) & (k < n)
        worst_d = max(
            worst_d, abs(float(np.dot(psi[j[ok]], psi[k[ok]])) * dx * math.sqrt(2.0))
        )
    if worst_t > ORTHO_TOL:
        errors.append(f"psi.csv: max |<psi, psi(. - n)>| = {worst_t:.3e}")
    if worst_d > ORTHO_TOL:
        errors.append(f"psi.csv: max |<psi, sqrt2 psi(2 . - n)>| = {worst_d:.3e}")
    return errors


def check_bell(psi_hat_csv: Path, a: float) -> list:
    """psi_hat = e^{i xi/2} b with b >= 0 vanishing off pi - a <= |xi| <=
    2 (pi + a), and b(xi)^2 + b(2 xi)^2 = 1 on [pi - a, pi + a]."""
    tab = _read_csv(psi_hat_csv)
    xi, ph = tab[:, 0], tab[:, 1] + 1j * tab[:, 2]
    b = np.abs(ph)
    errors = []
    phase = float(np.max(np.abs(ph - np.exp(0.5j * xi) * b)))
    if phase > BELL_TOL:
        errors.append(f"psi_hat.csv: phase residue {phase:.3e}")
    u = np.abs(xi)
    off = (u < math.pi - a - 1e-9) | (u > 2.0 * (math.pi + a) + 1e-9)
    leak = float(np.max(b[off])) if np.any(off) else 0.0
    if leak > BELL_TOL:
        errors.append(f"psi_hat.csv: {leak:.3e} outside the band")
    n = len(xi)
    centre = (n - 1) // 2
    if abs(xi[centre]) > 1e-12:
        raise ValueError("psi_hat.csv: frequency grid is not centred on 0")
    k = np.nonzero((xi >= math.pi - a) & (xi <= math.pi + a))[0]
    k2 = 2 * k - centre
    if np.max(np.abs(xi[k2] - 2.0 * xi[k])) > 1e-9:
        raise ValueError("psi_hat.csv: 2 xi is not on the frequency grid")
    part = float(np.max(np.abs(b[k] ** 2 + b[k2] ** 2 - 1.0)))
    if part > BELL_TOL:
        errors.append(f"psi_hat.csv: b(xi)^2 + b(2 xi)^2 off 1 by {part:.3e}")
    return errors


def check_lambert(table_csv: Path) -> list:
    """W column against scipy.special.lambertw."""
    tab = _read_csv(table_csv)
    x, w = tab[:, 0], tab[:, 1]
    ref = lambertw(x).real
    err = float(np.max(np.abs(w - ref) / np.maximum(1.0, np.abs(ref))))
    return [f"lambert_table.csv: W off scipy by {err:.3e}"] if err > LAMBERT_TOL else []


def check_assoc(assoc_csv: Path, sigma: float, tau: float = 1.0) -> list:
    """Exact associated function by enumerating every p, and its Lambert
    asymptote with scipy's W.

    T(k) = sup_p (p log k - log M_p), M_p = p^(tau p^sigma).  Past the
    stationary point the term only falls, so enumerating until the
    derivative log k - tau p^(sigma-1) (sigma log p + 1) stays negative
    covers the sup.
    """
    tab = _read_csv(assoc_csv)
    k, t_exact, argmax, t_asym = tab[:, 0], tab[:, 1], tab[:, 2], tab[:, 3]
    lk = np.log(k)
    p_max = 2
    while tau * p_max ** (sigma - 1.0) * (sigma * math.log(p_max) + 1.0) <= lk.max():
        p_max *= 2
    p = np.arange(0, 2 * p_max + 1, dtype=float)
    log_m = tau * p ** sigma * np.log(np.maximum(p, 1.0))
    terms = lk[:, None] * p[None, :] - log_m[None, :]
    best = terms.max(axis=1)
    best_p = terms.argmax(axis=1)
    errors = []
    err = float(np.max(np.abs(t_exact - best) / np.maximum(1.0, best)))
    if err > ASSOC_TOL:
        errors.append(f"assoc_func.csv: t_exact off the enumerated sup by {err:.3e}")
    if np.any(argmax != best_p):
        errors.append("assoc_func.csv: argmax_p differs from the enumerated argmax")
    ref = lk ** (sigma / (sigma - 1.0)) / lambertw(lk).real ** (1.0 / (sigma - 1.0))
    err = float(np.max(np.abs(t_asym - ref) / ref))
    if err > ASSOC_TOL:
        errors.append(f"assoc_func.csv: t_asym off the scipy-W asymptote by {err:.3e}")
    return errors


def check_moments(mixed_csv: Path, psi_csv: Path) -> list:
    """sup(k, 0) over the whole lattice >= max |x|^k |psi| over psi.csv,
    with equality at k = 0 (the peak lies inside psi.csv's range)."""
    tab = _read_csv(mixed_csv)
    x0, dx, psi = _lattice(psi_csv)
    ax = np.abs(x0 + dx * np.arange(len(psi)))
    errors = []
    for k, q, sup in tab:
        if q != 0:
            continue
        seen = float(np.max(ax ** k * np.abs(psi)))
        if sup < seen * (1.0 - MOMENT_TOL):
            errors.append(f"mixed.csv: sup(k={int(k)}, 0) = {sup:.6e} < {seen:.6e}")
        if k == 0 and abs(sup - seen) > MOMENT_TOL * seen:
            errors.append(f"mixed.csv: sup(0, 0) = {sup:.17g} != max|psi| = {seen:.17g}")
    return errors


def check_report(out_dir: Path, exit_code: int) -> list:
    """The CLI call exited 0 and its report says pass."""
    errors = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    status = json.loads((out_dir / "report.json").read_text())["status"]
    if status != "pass":
        errors.append(f"report.json status {status!r}")
    return errors


def check_cli_run(out_dir: Path, sigma: float, a: float, exit_code: int) -> list:
    """Every check that applies to the artifacts of one `lambertwave all`."""
    return (
        check_report(out_dir, exit_code)
        + check_orthonormality(out_dir / "psi.csv")
        + check_bell(out_dir / "psi_hat.csv", a)
        + check_lambert(out_dir / "lambert_table.csv")
        + check_assoc(out_dir / "assoc_func.csv", sigma)
        + check_moments(out_dir / "mixed.csv", out_dir / "psi.csv")
    )


def check_points(xs, quad, lattice) -> list:
    """Quadrature values against the synthesized lattice at its own nodes."""
    vals = lattice.values
    idx = np.round((np.asarray(xs) - lattice.x0) / lattice.dx).astype(int)
    scale = float(np.max(np.abs(vals)))
    dev = np.abs(np.asarray(quad) - vals[idx])
    worst = int(np.argmax(dev))
    if dev[worst] > POINT_TOL * scale:
        return [f"point x = {xs[worst]}: |quadrature - lattice| = {dev[worst]:.3e}"]
    return []
