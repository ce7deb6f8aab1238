"""CLI surface: subcommands, exit codes, config precedence, determinism."""

import argparse
import dataclasses
import errno
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lambertwave
from lambertwave import (
    BellEvaluator,
    ConvergenceError,
    DomainError,
    InputError,
    LambertwaveError,
    ResolutionError,
    VerificationError,
    cli,
    EnvelopeTable,
    decay_envelope,
    envelope_window,
    fit_decay,
)
from lambertwave.cli import _CSV_ROWS, RunConfig, build_parser, main, write_csv
from lambertwave.gevrey import SIGMA_MIN, lambert_regressor
from lambertwave.verify import DERIV_ORDERS, FIT_POINTS_MIN, FIT_SPAN_MIN, FIT_X

FAST_SYNTH = [
    "--period", str(2.0 ** 18),
    "--samples", str(2 ** 20),
]


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_lambert_table(tmp_path):
    rc = main(["lambert-table", "--out-dir", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "lambert_table.csv")
    assert header == ["x", "w", "residual", "lower_bound", "upper_bound"]
    # the fixed extent: 1000 log-spaced x over [1e-6, 1e8]
    xs = [float(r[0]) for r in rows]
    assert (xs[0], xs[-1], len(xs)) == (1e-6, 1e8, 1000)
    x0, w0 = float(rows[0][0]), float(rows[0][1])
    assert abs(w0 * math.exp(w0) - x0) <= 1e-12 * max(1.0, x0)
    assert rows[0][3] == "nan"  # bounds apply only from e upward
    assert rows[-1][3] != "nan"
    assert json.loads((tmp_path / "manifest.json").read_text())["exit_code"] == 0
    # no lattice is built, so none is recorded
    assert "grids" not in json.loads((tmp_path / "report.json").read_text())


def test_lambert_table_bounds_bracket_w(tmp_path):
    # log x - log log x < W(x) < log x - (1/2) log log x on every row past e,
    # both bounds nan below it
    assert main(["lambert-table", "--out-dir", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / "lambert_table.csv", delimiter=",", skiprows=1)
    x, w, lower, upper = table[:, 0], table[:, 1], table[:, 3], table[:, 4]
    past = x > math.e
    assert 0 < past.sum() < len(x)
    assert np.all(lower[past] < w[past]) and np.all(w[past] < upper[past])
    assert np.all(np.isnan(lower[~past])) and np.all(np.isnan(upper[~past]))


def test_assoc_func(tmp_path):
    rc = main(["assoc-func", "--tau", "1", "--sigma", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "assoc_func.csv")
    assert header == ["k", "t_exact", "argmax_p", "t_asym", "ratio"]
    # the fixed extent: 40 log-spaced k over [1e3, 1e12]
    ks = [float(r[0]) for r in rows]
    assert (ks[0], ks[-1], len(ks)) == (1e3, 1e12, 40)
    ratios = np.array([float(r[4]) for r in rows])
    assert ratios.max() / ratios.min() <= 10.0
    assert "grids" not in json.loads((tmp_path / "report.json").read_text())


def test_assoc_func_scaled_asymptote_underflow(tmp_path):
    # tau^(-1/(sigma-1)) = 1e5^-100 underflows to 0: once a ZeroDivisionError
    # out of main; the sup and T_sigma stand, and only the ratio is nan
    rc = main(["assoc-func", "--tau", "1e5", "--sigma", "1.01", "--out-dir", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "assoc_func.csv")
    assert len(rows) == 40
    for row in rows:
        assert math.isfinite(float(row[1])) and math.isfinite(float(row[3]))
        assert row[4] == "nan"


def test_build_mollifier(tmp_path, monkeypatch):
    # the cutoff is integrated once, for the provenance and the report alike
    integrals, integral = [], lambertwave.GridFunction.integral
    monkeypatch.setattr(lambertwave.GridFunction, "integral",
                        lambda self: integrals.append(integral(self)) or integrals[-1])
    rc = main(["build-mollifier", "--sigma", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(integrals) == 1
    header, rows = read_csv(tmp_path / "phi.csv")
    assert header == ["x", "phi"]
    prov = json.loads((tmp_path / "phi.provenance.json").read_text())
    assert prov["thresholds"] == [1, 2, 4, 6, 8, 10, 13, 15]
    assert prov["bounds_table"]
    assert all(r["measured"] <= r["bound"] * 1.001 for r in prov["bounds_table"])
    assert "tau_eff" not in prov and "log_c_fit" not in prov
    mass = np.trapezoid(
        [float(r[1]) for r in rows],
        dx=float(rows[1][0]) - float(rows[0][0]),
    )
    assert abs(mass - 1.0) <= 1e-8
    assert prov["mass"] == report["assertions"]["mollifier"]["mass"] == integrals[0]
    assert "grids" not in report


def test_build_mollifier_skipped_audit(tmp_path):
    # sigma = 6 keeps two factors, fewer than three: no audit can run
    rc = main(["build-mollifier", "--sigma", "6", "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "pass"
    moll = report["assertions"]["mollifier"]
    assert moll["audit_n_max"] == 0
    prov = json.loads((tmp_path / "phi.provenance.json").read_text())
    assert len(prov["scales"]) == 2
    assert prov["bounds_table"] == []


def test_build_mollifier_audit_too_short_to_fit(tmp_path):
    # sigma = 4 keeps three factors: the audit reaches n = 1; there is no
    # growth-shape fit at any depth, so the provenance has no fit keys
    rc = main(["build-mollifier", "--sigma", "4", "--out-dir", str(tmp_path)])
    assert rc == 0
    prov = json.loads((tmp_path / "phi.provenance.json").read_text())
    assert len(prov["scales"]) == 3
    assert [r["n"] for r in prov["bounds_table"]] == [0, 1]
    assert "tau_eff" not in prov and "log_c_fit" not in prov


@pytest.mark.parametrize("sigma", ["7", "30"])
def test_build_mollifier_single_cone_stays_nonnegative(tmp_path, sigma):
    # from sigma = 7 only the cone a_1 = 1/4 is kept, and its truncated
    # transform rings past the true support, sum a_p over every scale:
    # those samples are cleared, not gated (they read -4.2e-6 at sigma = 7)
    rc = main(["build-mollifier", "--sigma", sigma, "--out-dir", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "phi.csv")
    assert min(float(r[1]) for r in rows) >= 0.0
    assert json.loads((tmp_path / "report.json").read_text())[
        "assertions"]["mollifier"]["audit_n_max"] == 0
    prov = json.loads((tmp_path / "phi.provenance.json").read_text())
    assert len(prov["scales"]) == 1
    assert prov["bounds_table"] == []


def test_sigma_near_1_exits_2(tmp_path, capsys):
    # the block tails would need ~1e240 terms at sigma = 1.0001 and ~5e12
    # at 1.1: past 2^27 the thresholds refuse instead of summing
    for sigma in ("1.1", "1.0001"):
        rc = main(["build-mollifier", "--sigma", sigma, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "too close to 1" in capsys.readouterr().err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "error"
        assert report["failing"]["stage"] == "build_mollifier"
        assert json.loads((tmp_path / "manifest.json").read_text())["exit_code"] == 2


@pytest.mark.parametrize("command", ["assoc-func", "all"])
def test_sigma_overflowing_t_sigma_exits_2(tmp_path, capsys, command):
    # at sigma = 1.0001 the exponent 1/(sigma - 1) = 1e4 takes T_sigma past
    # double precision: all runs the decay fit, whose T_sigma on the fit
    # window is checked before any stage; assoc-func has no such gate, and
    # writes its sups with t_asym and ratio nan
    out = tmp_path / "out"
    rc = main([command, "--sigma", "1.0001", "--out-dir", str(out)])
    if command == "all":
        assert rc == 2
        assert "T_sigma overflows" in capsys.readouterr().err
        assert not out.exists()
        return
    assert rc == 0
    _, rows = read_csv(out / "assoc_func.csv")
    assert len(rows) == 40
    for row in rows:
        assert math.isfinite(float(row[1]))
        assert row[3] == row[4] == "nan"
    assert json.loads((out / "manifest.json").read_text())["status"] == "pass"


def test_build_wavelet(tmp_path):
    rc = main(["build-wavelet", *FAST_SYNTH, "--out-dir", str(tmp_path)])
    assert rc == 0
    man = json.loads((tmp_path / "wavelet_manifest.json").read_text())
    assert abs(man["l2_norm"] - 1.0) <= 1e-8
    assert man["imag_max"] <= 1e-12
    # the fixed extents: 2^16 + 1 frequencies over +-(2(pi + a) + 1), and
    # the lattice samples with |x| <= 512 (dx = 1/4 here)
    band = 2.0 * (math.pi + math.pi / 6.0) + 1.0
    assert man["freq_grid"] == {"xi0": -band, "dxi": 2.0 * band / 2 ** 16, "n": 2 ** 16 + 1}
    assert man["psi_csv_xmax"] == 512.0
    header, rows = read_csv(tmp_path / "psi_hat.csv")
    assert header == ["xi", "re", "im"]
    assert len(rows) == 2 ** 16 + 1
    header, rows = read_csv(tmp_path / "psi.csv")
    assert header == ["x", "psi"]
    xs = [float(r[0]) for r in rows]
    assert (xs[0], xs[-1], len(xs)) == (-512.0, 512.0, 4 * 1024 + 1)
    timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
    assert "wavelet_artifacts" in timings
    # no cutoff grid is built, so none is recorded
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["grids"]) == {"period", "samples"}


def test_verify_onw(tmp_path):
    rc = main([
        "verify-onw", *FAST_SYNTH, "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    v = report["assertions"]["verify_onw"]
    assert v["max_offdiag"] <= 1e-7
    assert v["max_diag_dev"] <= 1e-7
    assert v["dyadic_max_dev"] <= 1e-9
    assert abs(v["completeness_ratio"] - 1.0) <= 1e-3
    header, rows = read_csv(tmp_path / "gram.csv")
    assert header == ["m1", "n1", "m2", "n2", "re", "im"]
    # the fixed window: m in [-2, 2], n in [-8, 8]
    n_members = 5 * 17
    assert len(rows) == n_members * (n_members + 1) // 2 == 3655
    header, rows = read_csv(tmp_path / "dyadic.csv")
    assert header == ["xi", "s"]
    assert len(rows) == 11 * 601  # 11 octaves of the band


def test_decay_fit(tmp_path):
    rc = main([
        "decay-fit", *FAST_SYNTH, "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    fit = report["assertions"]["decay_fit"]
    assert fit["h_fit"] > 0
    assert fit["r_squared"] >= 0.9
    # the n = 0 derivative row is the envelope fit itself
    row0 = fit["derivatives"][0]
    assert row0["n"] == 0
    assert [row0[k] for k in ("h_fit", "intercept", "r_squared")] == [
        fit["h_fit"], fit["intercept"], fit["r_squared"]]
    assert [r["n"] for r in fit["derivatives"]] == [0, *DERIV_ORDERS]
    header, rows = read_csv(tmp_path / "envelope.csv")
    assert header == ["x", "env", "T_sigma", "lambert_bound"]


def test_mixed_audit(tmp_path):
    rc = main(["mixed-audit", *FAST_SYNTH, "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "pass"
    header, rows = read_csv(tmp_path / "mixed.csv")
    assert header == ["k", "q", "sup"]
    assert len(rows) == 81  # k, q <= 8


@pytest.mark.parametrize("command, orders", [
    ("all", range(9)),
    ("decay-fit", (0, 1, 2, 4, 8)),
    ("mixed-audit", range(9)),
])
def test_each_lattice_synthesized_once(tmp_path, monkeypatch, command, orders):
    # each derivative order is synthesized exactly once, alone, with no
    # periodization check, whichever command asks: psi alone is checked
    bell_mod = importlib.import_module("lambertwave.bell")
    synthesize = bell_mod.synthesize_psi_lattice
    calls = []

    def counting(*args, **kwargs):
        bound = inspect.signature(synthesize).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments["q"], bound.arguments["check_periodization"]))
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(bell_mod, "synthesize_psi_lattice", counting)
    rc = main([command, *FAST_SYNTH, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert sorted(q for q, _ in calls) == list(orders)
    assert [q for q, check in calls if check] == [0]


def test_mixed_audit_alone_writes_alls_table(tmp_path):
    # the lattice of each order is the same in every command, so mixed-audit
    # alone writes the mixed.csv of all, byte for byte, and decay-fit the
    # same derivative rows
    out = {c: tmp_path / c for c in ("all", "mixed-audit", "decay-fit")}
    for command, path in out.items():
        assert main([command, *FAST_SYNTH, "--out-dir", str(path)]) == 0
    mixed = (out["all"] / "mixed.csv").read_bytes()
    assert (out["mixed-audit"] / "mixed.csv").read_bytes() == mixed
    rows = {c: json.loads((out[c] / "report.json").read_text())["assertions"]["decay_fit"]
            for c in ("all", "decay-fit")}
    assert rows["decay-fit"]["derivatives"] == rows["all"]["derivatives"]


@pytest.mark.parametrize("command", ["all", "decay-fit", "mixed-audit"])
def test_psi_lattice_released_before_derivatives(tmp_path, monkeypatch, command):
    # psi's lattice has no reader once the decay fit has its envelope and
    # sup (or, alone, the mixed audit has psi's front): it is gone by the
    # time the first derivative synthesis starts
    bell_mod = importlib.import_module("lambertwave.bell")
    synthesize = bell_mod.synthesize_psi_lattice
    psi, alive = [], []

    def watching(*args, **kwargs):
        bound = inspect.signature(synthesize).bind(*args, **kwargs)
        bound.apply_defaults()
        if bound.arguments["q"] == 0:
            syn = synthesize(*args, **kwargs)
            psi.append(weakref.ref(syn.grid.values))
            return syn
        alive.append(psi[0]() is not None)
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(bell_mod, "synthesize_psi_lattice", watching)
    rc = main([command, *FAST_SYNTH, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert len(psi) == 1 and alive and not alive[0]


def test_invalid_a_exits_2(tmp_path, capsys):
    rc = main(["verify-onw", "--a", "1.2", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pi/3" in err and "'a'" in err


def test_odd_samples_exits_2(tmp_path, capsys):
    # an odd lattice has no node at x = 0: every sample would be mislabelled
    rc = main(["build-wavelet", "--samples", str(2 ** 14 + 1),
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "'samples'" in capsys.readouterr().err
    assert not (tmp_path / "psi.csv").exists()


def _fmt(v) -> str:
    """Per-value CSV formatting: integers as such, floats at 17 digits."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def test_write_csv_matches_per_value_format(tmp_path):
    ints = np.array([0, -3, 7, 2 ** 40])
    floats = np.array([math.pi, float("nan"), -0.0, 1e-300])
    more = [1.0, float("inf"), -2.5e17, 5e-324]
    path = tmp_path / "t.csv"
    write_csv(path, ["i", "f", "g"], [ints, floats, more])
    expected = "i,f,g\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in zip(ints, floats, more))
    assert path.read_bytes() == expected.encode()
    # columns over two row blocks and a short third, with the special values
    # at both ends of a block
    n = 2 * _CSV_ROWS + 5
    rng = np.random.default_rng(7)
    ints = rng.integers(-2 ** 62, 2 ** 62, n)
    ints[[0, -1]] = 2 ** 53 + 1, -(2 ** 62)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    special = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324]
    for at in (0, _CSV_ROWS - 1, _CSV_ROWS, n - len(special)):
        floats[at:at + len(special)] = special
    write_csv(path, ["i", "f"], [ints, floats])
    expected = "i,f\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in zip(ints, floats))
    assert path.read_bytes() == expected.encode()


def test_cli_runs_without_scipy(tmp_path):
    # the set-up cost of a run is this import: numpy alone, no scipy module
    # and no numpy.polynomial (the Gauss-Legendre rules are bell's own),
    # neither after the import nor after every stage of `all` has run
    src = str(Path(lambertwave.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lambertwave.cli; "
            "alien = lambda: sorted(m for m in sys.modules "
            "if m.startswith(('scipy', 'numpy.polynomial'))); "
            "print(alien()); "
            "rc = lambertwave.cli.main(['all', '--a', '0.9', '--samples', str(2 ** 19), "
            "'--period', str(2 ** 17), '--out-dir', sys.argv[2]]); "
            "print(rc, alien())")
    out = subprocess.run([sys.executable, "-c", code, src, str(tmp_path / "out")],
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[-3:] == ["[]", "0 []", ""]


LATTICE = {
    "--sigma": "sigma", "--a": "a", "--samples": "samples", "--period": "period",
}
COMMON = {"--config": "config", "--out-dir": "out_dir"}
OPTIONS = {
    "lambert-table": {**COMMON},
    "assoc-func": {"--tau": "tau", "--sigma": "sigma", **COMMON},
    "build-mollifier": {"--sigma": "sigma", **COMMON},
    "build-wavelet": {**LATTICE, **COMMON},
    "verify-onw": {**LATTICE, **COMMON},
    "decay-fit": {**LATTICE, **COMMON},
    "mixed-audit": {**LATTICE, **COMMON},
    "all": {**LATTICE, **COMMON},
}


def test_subcommand_options_and_fields():
    ap = build_parser()
    subs = next(
        a for a in ap._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert sorted(subs) == sorted(OPTIONS)
    field_types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    for cmd, expected in OPTIONS.items():
        actions = {
            opt: act for act in subs[cmd]._actions
            for opt in act.option_strings if opt not in ("-h", "--help")
        }
        assert {opt: act.dest for opt, act in actions.items()} == expected, cmd
        for opt, field in expected.items():
            ns = ap.parse_args([cmd, opt, "3"])
            if field != "config":
                # the flag sets its field, parsed as the field's type, and
                # is spelled --field-name
                assert type(getattr(ns, field)).__name__ == field_types[field], opt
                assert opt == "--" + field.replace("_", "-")
    # every config field is settable by some subcommand's flag
    flagged = {f for opts in OPTIONS.values() for f in opts.values()} - {"config"}
    assert flagged == set(field_types)


# five were config-file-only fields, now constants; profile_cutoff went
# with the sampled ramp profile, moll_base with the analytic base bump, and
# grid_pow and moll_cutoff with the sampled cascade build; the next seven
# set certificate gates and class weights, now fixed in verify, the next
# six certificate extents, now fixed next to their checks, the next three
# an artifact's extent or name, now fixed next to its stage, and the last
# seven the two tables' extents, now fixed next to their stages, and the
# last three the decay fit's window, now verify.FIT_X
@pytest.mark.parametrize("key", [
    "no_such_key", "moll_base_width", "m_max", "profile_base",
    "profile_base_width", "audit_n_max", "profile_cutoff", "moll_base",
    "grid_pow", "moll_cutoff", "gram_tol", "dyadic_tol", "completeness_tol",
    "r2_min", "env_floor", "mixed_s", "mixed_tau", "gram_m", "gram_n",
    "dyadic_window", "deriv_orders", "mixed_k_max", "mixed_q_max",
    "freq_pow", "psi_xmax", "moll_out",
    "xmin", "xmax", "points", "log", "kmin", "kmax", "kpoints",
    "fit_xmin", "fit_xmax", "fit_points",
])
def test_bad_config_file_exits_2(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    out = tmp_path / "out"
    rc = main(["lambert-table", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not out.exists()  # config errors write nothing


@pytest.mark.parametrize("field, value", [
    ("samples", 4096.5),       # non-integral float for an int
    ("sigma", True),           # bool for a float
    ("sigma", float("inf")),   # non-finite float
    # once fields whose bad values failed their type or range check; the
    # fields are gone, and a config naming them still exits 2, as an
    # unknown key, before any stage
    ("fit_points", 7.5),       # was a non-integral float for an int
    ("points", 7.5),           # was a non-integral float for an int
    ("freq_pow", "17"),        # was a string for an int
    ("moll_out", 5),           # was a number for a string
    ("deriv_orders", 5),
    ("deriv_orders", "1,x"),
    ("gram_m", -1),
    ("gram_n", -1),
    ("dyadic_window", 0),
])
def test_mistyped_config_exits_2_before_any_stage(tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    out = tmp_path / "out"
    rc = main(["decay-fit", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not (out / "psi.csv").exists()


@pytest.mark.parametrize("command, args, field", [
    # the tables' extents were set by --xmin, --points and --kpoints; they
    # are fixed now, and a config naming them exits 2 as an unknown key
    ("lambert-table", [{"xmin": 0}], "xmin"),
    # the envelope window at the fit's last point, 3e4, runs past the last
    # node L/2 - L/N = 16383.9375
    ("decay-fit", ["--samples", "524288", "--period", "32768", "--a", "0.9"], "period"),
    # the cutoff CSV was named by --out; its name is fixed now, and a
    # config naming it, {key: value} here, exits 2 as an unknown key
    ("build-mollifier", [{"moll_out": "sub/phi.csv"}], "moll_out"),
    ("build-mollifier", [{"moll_out": ""}], "moll_out"),
    ("build-mollifier", [{"moll_out": "report.json"}], "moll_out"),
    # table sizes are capped: each was a ValueError from numpy at 10^30
    ("lambert-table", [{"points": 10 ** 30}], "points"),
    ("assoc-func", [{"kpoints": 10 ** 30}], "kpoints"),
    # the decay fit's window was set by --fit-xmin, --fit-xmax and
    # --fit-points, whose bad values once exited 2 inside the decay-fit
    # stage (T_sigma past W's domain from x = 1, or under two decades); it
    # is verify.FIT_X now, and a config naming them exits 2 as an unknown key
    ("decay-fit", [{"fit_points": 10 ** 30}], "fit_points"),
    ("decay-fit", [{"fit_xmin": 1, "fit_xmax": 1000}], "fit_xmin"),
    ("decay-fit", [{"fit_xmin": 1e-300}], "fit_xmin"),
    # T_sigma on the fit's points past double precision near sigma = 1:
    # once exited 2 inside the decay-fit stage, after psi.csv was written
    ("decay-fit", ["--sigma", "1.000001"], "sigma"),
    ("decay-fit", [{"fit_xmax": 200, "fit_xmin": 100}], "fit_xmax"),
    ("decay-fit", [{"fit_xmax": 9000}], "fit_xmax"),
    # L/N underflows to 0: once a divide-by-zero warning in _validate
    ("all", ["--period", "5e-324"], "period"),
    # the ramp half-width a/4 underflows to 0: once a ZeroDivisionError in
    # _validate, and non-finite samples in build-wavelet
    ("all", ["--a", "5e-324"], "a"),
    # 2^sigma or log M_2 = tau 2^sigma log 2 past double precision: once an
    # OverflowError in the cascade walk, or numpy overflow warnings
    ("build-mollifier", ["--sigma", "1100"], "sigma"),
    ("all", ["--sigma", "1100"], "sigma"),
    ("assoc-func", ["--tau", "1e308"], "tau"),
    ("assoc-func", ["--sigma", "1e308"], "sigma"),
    ("assoc-func", ["--sigma", "1100"], "sigma"),
    # under SIGMA_MIN = 1 + 1e-12: once passed _validate and exited 2 inside
    # the assoc-func stage, after both JSON files were written
    ("assoc-func", ["--sigma", "1.0000000000001"], "sigma"),
    # samples that are no power of two, once accepted: 2^14 + 2 and 6,000,
    # each one N-point row, and 3 2^17, two rows of 196,608 points
    ("build-wavelet", ["--samples", str(2 ** 14 + 2)], "samples"),
    ("all", ["--samples", "6000"], "samples"),
    ("all", ["--samples", str(3 * 2 ** 17), "--period", str(2.0 ** 17)], "samples"),
], ids=["xmin-0", "fit-xmax-past-lattice", "out-in-subdir", "out-empty",
        "out-report-json", "points-1e30", "kpoints-1e30", "fit-points-1e30",
        "fit-xmin-1", "fit-xmin-1e-300", "fit-sigma-1.000001", "fit-span-0.3-decades",
        "fit-span-1.95-decades", "period-5e-324", "a-5e-324",
        "moll-sigma-1100",
        "all-sigma-1100", "tau-1e308", "sigma-1e308", "sigma-1100",
        "sigma-under-sigma-min", "samples-16386", "samples-6000", "samples-393216"])
def test_out_of_range_config_exits_2_writing_nothing(tmp_path, capsys, monkeypatch,
                                                    command, args, field):
    def built(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(cli, "build_wavelet", built)
    monkeypatch.setattr(cli, "build_mollifier", built)
    argv = [command]
    for arg in args:
        if isinstance(arg, dict):  # a config file's content
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps(arg))
            argv += ["--config", str(config)]
        else:
            argv.append(arg)
    out = tmp_path / "out"
    rc = main([*argv, "--out-dir", str(out)])
    assert rc == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["f", "f/sub", "x" * 300],
                         ids=["file", "under-file", "name-too-long"])
def test_out_dir_naming_a_file_exits_2_writing_nothing(tmp_path, capsys, out):
    # once a FileExistsError, a NotADirectoryError or, for a name past the
    # file system's limit, an OSError from the output directory's mkdir: a
    # traceback and exit 1
    blocker = tmp_path / "f"
    blocker.write_text("x")
    out = tmp_path / out
    rc = main(["lambert-table", "--out-dir", str(out)])
    assert rc == 2
    assert "'out_dir'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "x"


def test_fit_window_check_is_decay_envelopes():
    # around the least admitted period at the fixed fit window, _validate
    # rejects exactly the lattices on which decay_envelope finds an envelope
    # window off the lattice; the check runs only for the decay fit
    N = 2 ** 12
    xg = cli._log_grid(*FIT_X)
    window = envelope_window(BellEvaluator(RunConfig().a))
    edge = (xg[-1] + window / 2.0) / (0.5 - 1.0 / N)  # L/2 - L/N reaches the last window
    verdicts = set()
    for period in (edge - 0.5, np.nextafter(edge, 0.0), edge,
                   np.nextafter(edge, np.inf), edge + 0.5):
        cfg = RunConfig(period=float(period), samples=N)
        lattice = lambertwave.GridFunction(-cfg.period / 2.0, cfg.period / N, np.zeros(N))
        try:
            decay_envelope(lattice, xg, window)
            fits = True
        except InputError:
            fits = False
        verdicts.add(fits)
        cli._validate(cfg)
        if fits:
            cli._validate(cfg, ("decay_fit",))
        else:
            with pytest.raises(InputError, match="'period'"):
                cli._validate(cfg, ("decay_fit",))
    assert verdicts == {True, False}


def test_fit_window_span_check_is_fit_decays():
    # the fit's fixed points meet fit_decay's count and span gates, which
    # _validate once checked on a configured window: with every point
    # usable and the envelope exp(-T_sigma), the fit passes
    xg = cli._log_grid(*FIT_X)
    assert (xg[0], len(xg)) == (FIT_X[0], FIT_X[2])
    assert math.isclose(xg[-1], FIT_X[1], rel_tol=1e-15)
    assert len(xg) >= FIT_POINTS_MIN and xg[-1] / xg[0] >= FIT_SPAN_MIN
    sigma = RunConfig().sigma
    table = EnvelopeTable(x=xg, env=np.exp(-lambert_regressor(xg, sigma)),
                          usable=np.ones(len(xg), bool), window=1.0, dropped=0)
    assert fit_decay(table, sigma).x_range == (xg[0], xg[-1])


def test_envelope_under_the_floor_fails_the_fit(tmp_path, monkeypatch, capsys):
    # 29 usable points of 30 is a numeric limit of the wavelet, not a usage
    # error: the fit fails (exit 1), and both JSON files record it
    def sparse(lattice, x_grid, window, **kw):
        table = decay_envelope(lattice, x_grid, window, **kw)
        table.usable[29:] = False
        return table

    monkeypatch.setattr(cli, "decay_envelope", sparse)
    rc = main(["decay-fit", *FAST_SYNTH, "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "need >= 30 usable envelope points, got 29" in capsys.readouterr().err
    man = json.loads((tmp_path / "manifest.json").read_text())
    report = json.loads((tmp_path / "report.json").read_text())
    assert (man["exit_code"], man["status"], report["status"]) == (1, "fail", "fail")
    assert man["failing"]["stage"] == "decay_fit"


def test_build_wavelet_defaults_are_the_run_config_defaults():
    # point_eval's default wavelet, build_wavelet(), is the one `all` builds
    params = inspect.signature(lambertwave.build_wavelet).parameters
    cfg = RunConfig()
    assert ([params[name].default for name in ("sigma", "a", "L", "N")]
            == [cfg.sigma, cfg.a, cfg.period, cfg.samples])


def test_config_ranges_admit_their_ends():
    # every power of two from 2^12 to 2^24, the only samples admitted
    for k in range(12, 25):
        cli._validate(RunConfig(samples=2 ** k), ("decay_fit",))


@pytest.mark.parametrize("samples", [2 ** 24 + 2, 2 ** 40, 2 ** 19 + 2, 2 ** 22 + 2])
def test_samples_capped_before_any_allocation(samples):
    # 2^40 samples would reach a (2, 2^39) transform buffer, and a lattice
    # of 2 (mod 4) samples past 2^18 one N-point row (634.7 MB more peak
    # at 2^22 + 2); only _validate runs
    with pytest.raises(InputError, match="'samples'"):
        cli._validate(RunConfig(samples=samples))


def test_moll_out_naming_another_artifact_exits_2_writing_nothing(tmp_path, capsys):
    # once this run would pass, with psi.csv holding psi and the cutoff
    # lost; the cutoff is always phi.csv now, and moll_out an unknown key
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"moll_out": "psi.csv"}))
    out = tmp_path / "out"
    rc = main(["all", "--config", str(config), "--samples", str(2 ** 19),
               "--period", str(2.0 ** 17), "--a", "0.9", "--out-dir", str(out)])
    assert rc == 2
    assert "unknown key 'moll_out'" in capsys.readouterr().err
    assert not out.exists()


_HUGE_OR_BAD = st.sampled_from(["1e30", str(10 ** 30), "1e308", "-1", "-1e300", "0",
                                "nan", "inf", "-inf", "abc", "", "1e", "0x10"])


def _flag(name, in_range):
    return st.tuples(st.just(name), st.one_of(in_range.map(str), _HUGE_OR_BAD))


_FUZZ_ARGVS = st.one_of(
    st.just(["lambert-table"]),  # its extent is fixed: it takes no flag
    st.lists(st.one_of(
        _flag("--tau", st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)),  # log-uniform
        _flag("--sigma", st.floats(SIGMA_MIN, 4.0)),
    ), max_size=4).map(lambda fl: ["assoc-func"] + [t for f in fl for t in f]),
)


@settings(max_examples=200, deadline=None)
@given(argv=_FUZZ_ARGVS)
def test_fuzzed_table_argvs_exit_cleanly(argv):
    # in-range, huge, negative and non-numeric values: never a traceback,
    # no numeric error, and a run that reached a stage leaves both JSON files
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        rc = main(argv + ["--out-dir", str(out)])
        assert rc in (0, 2)
        if rc != 2 or out.exists():
            man = json.loads((out / "manifest.json").read_text())
            assert (out / "report.json").exists()
            assert man["exit_code"] == rc


_EDGE = st.sampled_from(["1", "1.000001", "1.0001", "1e-300", "5e-324", "0.5"])


def _fit_flag(name, in_range):
    return st.tuples(st.just(name), st.one_of(in_range.map(str), _EDGE, _HUGE_OR_BAD))


_FIT_ARGVS = st.lists(st.one_of(
    _fit_flag("--sigma", st.one_of(st.floats(1.0, 1.01), st.floats(1.01, 1000.0))),
    _fit_flag("--period", st.floats(1e4, 1e6)),
), max_size=4).map(lambda fl: ["decay-fit"] + [t for f in fl for t in f])


@settings(max_examples=200, deadline=None)
@given(argv=_FIT_ARGVS)
def test_fuzzed_decay_fit_argvs_validate_or_fit(argv):
    # the validation path alone, no lattice: a config either is refused
    # with an InputError, or gives a finite T_sigma on the fit's points,
    # warning free (tier-1 turns a RuntimeWarning into an error)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a value argparse cannot parse
        assert exc.code == 2
        return
    try:
        cfg = cli.resolve_config(args)
        cli._validate(cfg, cli.COMMANDS["decay-fit"].stages)
    except InputError:
        return
    assert np.all(np.isfinite(lambert_regressor(cli._log_grid(*FIT_X), cfg.sigma)))


_LATTICE_ARGVS = st.tuples(
    st.sampled_from(["build-wavelet", "verify-onw", "mixed-audit", "all"]),
    st.lists(st.one_of(
        _fit_flag("--sigma", st.floats(1.0, 1100.0)),
        _fit_flag("--a", st.floats(0.0, 1.1)),
        _fit_flag("--samples", st.integers(2 ** 11, 2 ** 25)),
        _fit_flag("--period", st.floats(1.0, 2.0 ** 30)),
    ), max_size=4),
).map(lambda c: [c[0]] + [t for f in c[1] for t in f])


@settings(max_examples=150, deadline=None)
@given(argv=_LATTICE_ARGVS)
def test_fuzzed_lattice_argvs_validate_or_refuse(argv):
    # the wavelet subcommands' lattice flags on the validation path alone:
    # argparse's exit 2, an InputError, or a config _validate passes, with
    # no other exception and no warning (tier-1 turns a RuntimeWarning into
    # an error); no stage runs
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a value argparse cannot parse
        assert exc.code == 2
        return
    try:
        cfg = cli.resolve_config(args)
        cli._validate(cfg, cli.COMMANDS[argv[0]].stages)
    except InputError:
        return
    assert 1.0 < cfg.sigma and 0.0 < cfg.a < math.pi / 3.0
    assert cfg.samples & (cfg.samples - 1) == 0 and 2 ** 12 <= cfg.samples <= 2 ** 24
    assert 0.0 < cfg.period < math.inf


def test_lattice_size_checked_before_the_band_is_sampled(tmp_path, monkeypatch):
    # at period 2^60 the band would have ~5e18 lattice frequencies: the
    # synthesis must refuse from its length alone, never sampling it
    def sampled(self, L):
        raise AssertionError("the band was sampled")

    monkeypatch.setattr(lambertwave.BellEvaluator, "lattice_band", sampled)
    rc = main(["build-wavelet", "--period", str(2.0 ** 60), "--out-dir", str(tmp_path)])
    assert rc == 3
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["failing"]["message"] == "lattice too small for the spectral bandwidth"
    assert man["exit_code"] == 3


@pytest.mark.parametrize("exc, code", [
    (VerificationError("v"), 1),
    (InputError("i"), 2),
    (DomainError("d"), 2),
    (ResolutionError("r"), 3),
    (ConvergenceError("c"), 3),
    (LambertwaveError("l"), 1),
    (OSError("disk full"), 1),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_every_stage_exit_leaves_both_json_files(tmp_path, monkeypatch, exc, code):
    # main's exit code and the manifest's come from one table; an exception
    # that is no LambertwaveError is recorded, then propagates
    def stage(run):
        raise exc

    monkeypatch.setitem(cli.STAGES, "lambert_table", stage)
    args = ["lambert-table", "--out-dir", str(tmp_path)]
    if isinstance(exc, LambertwaveError):
        assert main(args) == code
    else:
        with pytest.raises(OSError, match="disk full"):
            main(args)
    man = json.loads((tmp_path / "manifest.json").read_text())
    report = json.loads((tmp_path / "report.json").read_text())
    assert man["exit_code"] == code
    assert man["status"] == report["status"]
    assert man["failing"] == report["failing"]
    assert man["failing"]["stage"] == "lambert_table"
    if isinstance(exc, VerificationError):
        assert man["status"] == "fail"
    else:
        assert man["status"] == "error"
        assert man["failing"]["exception"] == type(exc).__name__
        assert man["failing"]["message"] == str(exc)


def test_unwritable_artifact_exits_2_with_a_manifest(tmp_path, capsys):
    # a directory where a stage's CSV goes: one message line naming the
    # file and exit 2, not a traceback, and the manifest records it
    (tmp_path / "lambert_table.csv").mkdir()
    assert main(["lambert-table", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {tmp_path / 'lambert_table.csv'}: Is a directory"]
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["exit_code"] == 2 and man["status"] == "error"
    assert man["failing"] == {"stage": "lambert_table", "exception": "InputError",
                              "message": err[0].removeprefix("error: ")}
    assert json.loads((tmp_path / "report.json").read_text())["failing"] == man["failing"]


def test_full_disk_exits_2_with_a_manifest(tmp_path, capsys, monkeypatch):
    # a disk that fills while a stage's CSV is written, after it was opened:
    # one message line naming the file and exit 2, not a traceback, and the
    # manifest records it
    real_open = open

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def opening(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return FullDisk(fh) if Path(path).name == "lambert_table.csv" else fh

    monkeypatch.setattr(cli, "open", opening, raising=False)
    assert main(["lambert-table", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {tmp_path / 'lambert_table.csv'}: "
                   f"{os.strerror(errno.ENOSPC)}"]
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["exit_code"] == 2 and man["status"] == "error"
    assert man["failing"] == {"stage": "lambert_table", "exception": "InputError",
                              "message": err[0].removeprefix("error: ")}


def test_unwritable_report_still_leaves_a_manifest(tmp_path, capsys):
    # every stage passes but report.json cannot be written: the manifest is
    # still written, names the file and records exit 2
    (tmp_path / "report.json").mkdir()
    assert main(["lambert-table", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {tmp_path / 'report.json'}: Is a directory"]
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["exit_code"] == 2 and man["status"] == "error"
    assert man["failing"] == {"artifact": "report.json", "exception": "InputError",
                              "message": err[0].removeprefix("error: ")}
    assert list(man["artifacts"]) == ["lambert_table.csv"]
    assert "lambert_table" in man["timings"]


def test_int_for_float_field_matches_flag_spelling(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"period": 2 ** 18, "sigma": 2}))
    args = ["build-wavelet", "--samples", str(2 ** 20)]
    out1, out2 = tmp_path / "file", tmp_path / "flags"
    assert main(args + ["--config", str(cfg), "--out-dir", str(out1)]) == 0
    assert main(args + ["--period", str(2 ** 18), "--sigma", "2",
                        "--out-dir", str(out2)]) == 0
    for name in ("report.json", "psi.csv", "wavelet_manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    man = json.loads((out1 / "manifest.json").read_text())
    assert isinstance(man["config"]["sigma"], float)
    assert isinstance(man["config"]["period"], float)


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"sigma": 3.0}')
    tables = {}
    for name, flags in (("default", []), ("file", ["--config", str(cfg)]),
                        ("flag", ["--config", str(cfg), "--sigma", "2.5"])):
        out = tmp_path / name
        assert main(["assoc-func", *flags, "--out-dir", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        tables[man["config"]["sigma"]] = (out / "assoc_func.csv").read_bytes()
    # file beats defaults, flags beat the file, and each sigma is its own table
    assert list(tables) == [2.0, 3.0, 2.5]
    assert len(set(tables.values())) == 3


def test_env_var_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("LAMBERTWAVE_OUT", str(target))
    rc = main(["lambert-table"])
    assert rc == 0
    assert (target / "lambert_table.csv").exists()


def test_manifest_echoes_full_config(tmp_path):
    rc = main(["assoc-func", "--sigma", "3", "--out-dir", str(tmp_path)])
    assert rc == 0
    man = json.loads((tmp_path / "manifest.json").read_text())
    cfg = man["config"]
    # every field is recorded, and no certificate gate or extent is a
    # field, nor any artifact's extent or name
    assert set(cfg) == {f.name for f in dataclasses.fields(RunConfig)}
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "sigma", "a", "period", "samples", "tau", "out_dir"]
    assert not {"gram_tol", "dyadic_tol", "completeness_tol", "r2_min",
                "env_floor", "mixed_s", "mixed_tau", "gram_m", "gram_n",
                "dyadic_window", "deriv_orders", "mixed_k_max",
                "mixed_q_max", "freq_pow", "psi_xmax", "moll_out", "xmin",
                "xmax", "points", "log", "kmin", "kmax", "kpoints",
                "fit_xmin", "fit_xmax", "fit_points"} & set(cfg)
    assert cfg["sigma"] == 3.0


def test_all_reruns_byte_identical(tmp_path):
    args = ["all", *FAST_SYNTH]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    csvs = sorted(p.name for p in out1.glob("*.csv"))
    assert csvs  # the run produced CSV artifacts
    for name in csvs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1 == r2
    # each CSV an all run writes, under its fixed name
    man = json.loads((out1 / "manifest.json").read_text())
    assert {n for n in man["artifacts"] if n.endswith(".csv")} == {
        "lambert_table.csv", "assoc_func.csv", "phi.csv", "psi_hat.csv", "psi.csv",
        "gram.csv", "dyadic.csv", "envelope.csv", "mixed.csv"}
    assert "grid_pow" not in r1["grids"]  # the cutoff grid is fixed
    assert "crossovers" not in r1["assertions"]["decay_fit"]
    _assert_stage_usage(man, cli.COMMANDS["all"].stages)


def _assert_stage_usage(man, stages):
    """The manifest gives wall time, CPU time and the process's RSS
    high-water mark for exactly ``stages``; the high-water mark never falls
    along the run order."""
    for key in ("timings", "cpu_s", "rss_high_water_mb"):
        assert set(man[key]) == set(stages), key
        assert all(v >= 0.0 for v in man[key].values()), key
    rss = [man["rss_high_water_mb"][name] for name in stages]
    assert all(b >= a for a, b in zip(rss, rss[1:]))
    assert not stages or rss[0] > 0.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM of /proc/self/status")
def test_rss_high_water_is_the_runs_own(tmp_path):
    # a run started from a process that holds 256 MB: Linux carries that
    # size into the run's ru_maxrss across exec, but the manifest reads the
    # run's own VmHWM (lambert-table peaks near 80 MB)
    src = str(Path(lambertwave.__file__).resolve().parents[1])
    run = ("import resource, sys; sys.path.insert(0, sys.argv[1]); "
           "from lambertwave.cli import main; "
           "assert main(['lambert-table', '--out-dir', sys.argv[2]]) == 0; "
           "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)")
    holder = ("import subprocess, sys; held = b'x' * (256 << 20); "
              "print(subprocess.run([sys.executable, '-c', sys.argv[1], *sys.argv[2:]], "
              "capture_output=True, text=True, check=True).stdout)")
    out = subprocess.run([sys.executable, "-c", holder, run, src, str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert float(out) >= 256.0  # the inherited ru_maxrss the manifest must not read
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert 0.0 < man["rss_high_water_mb"]["lambert_table"] < 200.0


def test_build_mollifier_out_name(tmp_path, capsys):
    # the cutoff's name is fixed: --out is no flag, nor an abbreviation of
    # --out-dir, so it cannot make cutoff.csv the output directory
    out = tmp_path / "out"
    rc = main(["build-mollifier", "--sigma", "2", "--out", "cutoff.csv",
               "--out-dir", str(out)])
    assert rc == 2
    assert "unrecognized arguments: --out cutoff.csv" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["build-mollifier", "--sigma", "2", "--out-dir", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "phi.csv", "phi.provenance.json", "report.json"]


# the flags that set the two tables' extents; each extent is fixed now
@pytest.mark.parametrize("command, flag", [
    ("lambert-table", ["--xmin", "1"]),
    ("lambert-table", ["--xmax", "10"]),
    ("lambert-table", ["--points", "5"]),
    ("lambert-table", ["--log"]),
    ("lambert-table", ["--linear"]),
    ("assoc-func", ["--kmin", "1e4"]),
    ("assoc-func", ["--kmax", "1e9"]),
    ("assoc-func", ["--kpoints", "20"]),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_removed_table_flag_exits_2_writing_nothing(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    rc = main([command, *flag, "--out-dir", str(out)])
    assert rc == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_verification_failure_exits_1(tmp_path, capsys, monkeypatch):
    # the real Gram check, gated far below its fixed 1e-7, fails through main
    monkeypatch.setattr(lambertwave.verify, "_GRAM_TOL", 1e-16)
    rc = main(["verify-onw", *FAST_SYNTH, "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "gram deviation exceeds 1.0e-16" in capsys.readouterr().err
    # the failing assertion path lands in the manifest
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["failing"]["stage"] == "verify_onw"
    assert man["exit_code"] == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "fail"


def test_resolution_failure_exits_3(tmp_path, capsys):
    # a short period cannot meet the periodization bar with this tail
    rc = main([
        "build-wavelet", "--period", str(2.0 ** 14),
        "--samples", str(2 ** 18), "--out-dir", str(tmp_path),
    ])
    assert rc == 3
    assert "periodization" in capsys.readouterr().err
    # the stage error is recorded before it propagates
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["exit_code"] == 3
    failing = man["failing"]
    assert failing["stage"] == "build_wavelet"
    assert failing["exception"] == "ResolutionError"
    assert "periodization" in failing["message"]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "error"
    assert report["failing"] == failing
    # usage figures only for the stages before the failing one: none here
    stages = cli.COMMANDS["build-wavelet"].stages
    _assert_stage_usage(man, stages[:stages.index(failing["stage"])])


def test_default_a_passes_periodization_on_small_lattice(tmp_path):
    # 2^19 samples at period 2^17: the residual at a = pi/6 is 7.5e-14; a
    # jump of theta at a ramp end adds a 1/|x| tail that breaks the 1e-13 bar
    rc = main([
        "all", "--samples", str(2 ** 19), "--period", str(2.0 ** 17),
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["assertions"]["wavelet"]["periodization_diff"] < 1e-13


def test_assoc_func_near_sigma_1_writes_every_row(tmp_path):
    # the search reaches any argmax below 2^53: at sigma = 1.05 the sup for
    # k = 1e12 sits at p = 389626, at 1.001 at p = 176873743769 (checked in
    # 40-digit arithmetic), where T_sigma(k) is past double precision and
    # t_asym and ratio are nan
    for sigma in ("1.05", "1.001"):
        out = tmp_path / sigma
        assert main(["assoc-func", "--sigma", sigma, "--out-dir", str(out)]) == 0
        _, rows = read_csv(out / "assoc_func.csv")
        assert len(rows) == 40
        assert all(math.isfinite(float(row[1])) for row in rows)
        if sigma == "1.05":
            assert rows[-1][2] == "389626"
            assert all(math.isfinite(float(row[3])) for row in rows)
        else:
            assert rows[-1][2] == "176873743769"
            assert all(row[3] == row[4] == "nan" for row in rows)


def test_assoc_argmax_past_exact_integers_exits_2(tmp_path, capsys):
    # at tau = 1e-30 the argmax for k = 1e3 already lies past 2^53 - 1: a
    # domain error naming k, tau and sigma, recorded in both JSON files
    rc = main(["assoc-func", "--tau", "1e-30", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "k = 1000, tau = 1e-30, sigma = 2 " in capsys.readouterr().err
    for name in ("report.json", "manifest.json"):
        doc = json.loads((tmp_path / name).read_text())
        assert doc["status"] == "error"
        failing = doc["failing"]
        assert (failing["stage"], failing["exception"]) == ("assoc_func", "DomainError")
    assert not (tmp_path / "assoc_func.csv").exists()
