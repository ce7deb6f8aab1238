"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines with their measured witnesses.
"""

import json
import math
import time

import numpy as np
import pytest

from lambertwave import (
    GridSpec,
    SequenceParams,
    assoc_t_asym,
    assoc_t_exact,
    build_mollifier,
    completeness_check,
    decay_envelope,
    derivative_bound_audit,
    derivative_decay_check,
    dyadic_sum_check,
    envelope_window,
    eval_psi_point,
    fit_decay,
    gaussian_spectrum,
    gram_matrix,
    intercept_growth_fit,
    lambert_w0,
    mixed_bound_audit,
    w_bounds_check,
)
from lambertwave.cli import main as cli_main

A = math.pi / 6.0


def _report(num, detail):
    print(f"criterion {num}: PASS  [{detail}]")


def test_criterion_1_lambert_identities():
    t0 = time.perf_counter()
    xs = np.logspace(-6, 8, 1000)
    w = lambert_w0(xs)
    resid = np.max(np.abs(w * np.exp(w) - xs) / np.maximum(1.0, xs))
    assert resid <= 1e-12

    grid = np.logspace(np.log10(np.e), 8, 1000)
    grid[0] = np.e
    rep = w_bounds_check(grid)
    # equality only at x = e
    assert abs(rep.lower_slack[0]) <= 1e-13 and abs(rep.upper_slack[0]) <= 1e-13
    assert np.all(rep.lower_slack[1:] > 0)
    assert np.all(rep.upper_slack[1:] > 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"max residual {resid:.2e}, min slacks "
               f"{rep.min_lower_slack:.2e}/{np.min(rep.upper_slack[1:]):.2e}, "
               f"{elapsed:.2f}s")


def test_criterion_2_assoc_sandwich():
    t0 = time.perf_counter()
    ks = np.logspace(3, 12, 40)
    bands = {}
    for tau, sigma in ((1.0, 2.0), (0.5, 2.0), (1.0, 3.0)):
        params = SequenceParams(tau, sigma)
        scale = tau ** (-1.0 / (sigma - 1.0))
        ratios = []
        for k in ks:
            rep = assoc_t_exact(float(k), params)
            # independent enumeration oracle
            ps = np.arange(10 * rep.argmax_p + 51, dtype=float)
            terms = ps * math.log(k) - np.where(
                ps >= 2, tau * ps ** sigma * np.log(np.maximum(ps, 2.0)), 0.0
            )
            oracle = max(0.0, float(np.max(terms)))
            assert rep.t_exact == pytest.approx(oracle, rel=1e-13, abs=1e-13)
            ratios.append(rep.t_exact / (scale * assoc_t_asym(float(k), sigma)))
        band = max(ratios) / min(ratios)
        bands[(tau, sigma)] = band
        assert band <= 10.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, "bands " + ", ".join(
        f"({t},{s}): {b:.3f}" for (t, s), b in bands.items()
    ) + f", {elapsed:.2f}s")


def test_criterion_3_mollifier_certificates():
    t0 = time.perf_counter()
    build = build_mollifier(2.0, GridSpec.symmetric(1.5, 17))
    phi = build.phi
    mass = phi.integral()
    assert abs(mass - 1.0) <= 1e-8
    assert np.all(phi.values >= 0.0)
    assert build.evenness <= 1e-10
    half = float(np.sum(build.scales))
    assert half <= 1.0
    x = phi.x()
    assert np.all(phi.values[np.abs(x) > half + 2 * phi.dx] == 0.0)

    audit = derivative_bound_audit(build, 8)
    worst = max(r.ratio for r in audit.rows)
    assert all(r.measured <= r.bound * 1.001 for r in audit.rows)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, f"mass err {abs(mass - 1):.1e}, evenness {build.evenness:.1e}, "
               f"audit worst ratio {worst:.3f}, {elapsed:.1f}s")


def test_criterion_4_bell_structure(wavelet):
    ph = wavelet.ph
    flat = np.linspace(math.pi + A, 2.0 * (math.pi - A), 2001)
    assert np.all(ph.bell_at(flat) == 1.0)
    outside = np.concatenate(
        [np.linspace(0, math.pi - A, 500),
         np.linspace(2 * (math.pi + A), 30.0, 500)]
    )
    assert np.all(ph.bell_at(outside) == 0.0)

    rng = np.random.RandomState(7)
    xs = rng.uniform(-A, A, 500)
    compl = np.max(np.abs(ph.theta_a(xs) + ph.theta_a(-xs) - math.pi / 2.0))
    assert compl <= 1e-9

    syn = wavelet.synthesis
    assert abs(syn.l2_norm - 1.0) <= 1e-8
    assert syn.imag_max <= 1e-12

    grid = syn.grid
    sup = grid.sup()
    sel = []
    for xt in np.linspace(-6.0, 7.0, 53):
        i = int(round((xt - grid.x0) / grid.dx))
        if abs(grid.values[i]) >= 1e-3 * sup:
            sel.append(i)
        if len(sel) == 20:
            break
    assert len(sel) == 20
    worst_rel = 0.0
    xg = grid.x()
    for i in sel:
        pv = eval_psi_point(wavelet.ph, float(xg[i]))
        worst_rel = max(worst_rel, abs(pv - grid.values[i]) / abs(grid.values[i]))
    assert worst_rel <= 1e-8
    _report(4, f"complementarity {compl:.1e}, |norm-1| {abs(syn.l2_norm-1):.1e}, "
               f"imag {syn.imag_max:.1e}, quadrature agreement {worst_rel:.1e}")


def test_criterion_5_orthonormality(wavelet):
    t0 = time.perf_counter()
    gram = gram_matrix(wavelet.ph, m_range=(-2, 2), n_range=(-8, 8), tol=1e-7)
    assert gram.values.size == 3655  # 85 members, unordered pairs incl. diagonal
    assert gram.max_offdiag <= 1e-7
    assert gram.max_diag_dev <= 1e-7
    dy = dyadic_sum_check(wavelet.ph, m_window=6, tol=1e-9)
    assert dy.max_dev <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(5, f"offdiag {gram.max_offdiag:.1e}, diag dev {gram.max_diag_dev:.1e}, "
               f"dyadic {dy.max_dev:.1e}, {elapsed:.1f}s")


def test_criterion_6_completeness(wavelet):
    rep = completeness_check(wavelet.ph, gaussian_spectrum(), target_tol=1e-3)
    assert abs(rep.ratio - 1.0) <= 1e-3
    windows = ", ".join(f"m={m}:|n|<={v}" for m, v in sorted(rep.n_used.items()))
    _report(6, f"energy ratio {rep.ratio:.6f}, windows {windows}")


def test_criterion_7_decay_law(wavelet, fit_grid):
    table = decay_envelope(wavelet.synthesis.grid, fit_grid,
                           envelope_window(wavelet.ph), floor=1e-15)
    fit = fit_decay(table, wavelet.sigma, r2_min=0.9)
    assert fit.h_fit > 0
    assert fit.r_squared >= 0.9
    assert fit.shape_checks["sqrt_ratio_decreasing_top_decade"]
    assert fit.shape_checks["log_ratio_increasing"]
    _report(7, f"h {fit.h_fit:.4f} (+/- {fit.h_stderr:.4f}), "
               f"r^2 {fit.r_squared:.4f}, usable {fit.n_points}, "
               f"range [{fit.x_range[0]:.0f}, {fit.x_range[1]:.0f}]")


def test_criterion_8_derivative_decay(wavelet, fit_grid, lattice_cache):
    window = envelope_window(wavelet.ph)
    rows = []
    for n in (0, 1, 2, 4, 8):
        row = derivative_decay_check(
            lattice_cache[n], n, fit_grid, window, wavelet.sigma
        )
        if n in (1, 2, 4, 8):
            assert row.h_fit > 0
            assert row.r_squared >= 0.9
        rows.append(row)
    growth = intercept_growth_fit(rows)
    assert np.isfinite(growth.log_c_at_s1)
    assert 0.0 < growth.s_ls <= 1.0
    _report(8, "h " + ", ".join(f"n={r.n}: {r.h_fit:.3f}" for r in rows)
               + f"; intercept form C={math.exp(growth.log_c_ls):.3f}, "
                 f"s={growth.s_ls:.3f}")


def test_criterion_9_mixed_bound(wavelet):
    rep = mixed_bound_audit(
        wavelet.fronts(range(9)), 8, 8, 2.0
    )
    # direct substitution of the reported constants into all 81 constraints
    for k in range(9):
        for q in range(9):
            lhs = math.log(rep.sup_table[k, q])
            rhs = (
                rep.log_c + k * rep.log_a + q * rep.log_b
                + math.lgamma(k + 1.0)
                + q ** 2 * (math.log(q) if q >= 1 else 0.0)
            )
            assert lhs <= rhs + 1e-9
    _report(9, f"feasible, log C {rep.log_c:.4f}, "
               f"log A {rep.log_a:.1f}, log B {rep.log_b:.1f}")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "samples": 2 ** 20,
        "fit_points": 30,
        "deriv_orders": "1,2",
        "mixed_k_max": 4,
        "mixed_q_max": 4,
        "kpoints": 20,
        "points": 100,
        "gram_m": 2,
        "gram_n": 8,
    }))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["all", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    assert cli_main(["all", "--config", str(cfg), "--out-dir", str(out2)]) == 0
    names = sorted(p.name for p in out1.glob("*.csv"))
    assert len(names) >= 6
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1 == r2
    _report(10, f"{len(names)} CSV artifacts byte-identical across reruns")
