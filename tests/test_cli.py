"""CLI surface: subcommands, exit codes, config precedence, determinism."""

import argparse
import dataclasses
import importlib
import inspect
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lambertwave
from lambertwave import (
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
from lambertwave.cli import RunConfig, build_parser, main, write_csv
from lambertwave.gevrey import SIGMA_MIN, lambert_regressor

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


def test_build_mollifier(tmp_path):
    rc = main(["build-mollifier", "--sigma", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
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
    assert "grids" not in json.loads((tmp_path / "report.json").read_text())


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
        "decay-fit", *FAST_SYNTH,
        "--fit-xmin", "100", "--fit-xmax", "12800", "--fit-points", "30",
        "--out-dir", str(tmp_path),
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
    assert [r["n"] for r in fit["derivatives"]] == [0, *cli.DERIV_ORDERS]
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
    # derivative orders ride two per synthesis, paired in request order:
    # decay-fit asks for (1, 2), (4, 8); mixed-audit then for (3, 5), (6, 7)
    n_calls = {"all": 5, "decay-fit": 3, "mixed-audit": 5}[command]
    bell_mod = importlib.import_module("lambertwave.bell")
    synthesize = bell_mod.synthesize_psi_lattice
    calls = []

    def counting(*args, **kwargs):
        bound = inspect.signature(synthesize).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments["q"], bound.arguments["q2"],
                      bound.arguments["check_periodization"]))
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(bell_mod, "synthesize_psi_lattice", counting)
    rc = main([command, *FAST_SYNTH, "--out-dir", str(tmp_path)])
    assert rc == 0
    made = [q for q, _, _ in calls] + [q2 for _, q2, _ in calls if q2 is not None]
    assert sorted(made) == list(orders)
    assert [(q, q2) for q, q2, check in calls if check] == [(0, None)]
    assert len(calls) == n_calls


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


def test_cli_import_leaves_out_scipy_signal():
    # the set-up cost of a run is this import: no heavier scipy subpackage
    src = str(Path(lambertwave.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lambertwave.cli; "
            "print('scipy.signal' in sys.modules, 'scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False False"


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
    "decay-fit": {
        **LATTICE, "--fit-xmin": "fit_xmin", "--fit-xmax": "fit_xmax",
        "--fit-points": "fit_points", **COMMON,
    },
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
# seven the two tables' extents, now fixed next to their stages
@pytest.mark.parametrize("key", [
    "no_such_key", "moll_base_width", "m_max", "profile_base",
    "profile_base_width", "audit_n_max", "profile_cutoff", "moll_base",
    "grid_pow", "moll_cutoff", "gram_tol", "dyadic_tol", "completeness_tol",
    "r2_min", "env_floor", "mixed_s", "mixed_tau", "gram_m", "gram_n",
    "dyadic_window", "deriv_orders", "mixed_k_max", "mixed_q_max",
    "freq_pow", "psi_xmax", "moll_out",
    "xmin", "xmax", "points", "log", "kmin", "kmax", "kpoints",
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
    ("fit_points", 7.5),       # non-integral float for an int
    ("sigma", True),           # bool for a float
    ("sigma", float("inf")),   # non-finite float
    # once fields whose bad values failed their type or range check; the
    # fields are gone, and a config naming them still exits 2, as an
    # unknown key, before any stage
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
    # the envelope window at 7e4 runs past the last node L/2 - L/N = 65535.75
    ("decay-fit", ["--samples", "524288", "--period", "131072", "--a", "0.9",
                   "--fit-xmax", "70000"], "fit_xmax"),
    # the cutoff CSV was named by --out; its name is fixed now, and a
    # config naming it, {key: value} here, exits 2 as an unknown key
    ("build-mollifier", [{"moll_out": "sub/phi.csv"}], "moll_out"),
    ("build-mollifier", [{"moll_out": ""}], "moll_out"),
    ("build-mollifier", [{"moll_out": "report.json"}], "moll_out"),
    # table sizes are capped: each was a ValueError from numpy at 10^30
    ("lambert-table", [{"points": 10 ** 30}], "points"),
    ("assoc-func", [{"kpoints": 10 ** 30}], "kpoints"),
    ("decay-fit", ["--fit-points", str(10 ** 30)], "fit_points"),
    # T_sigma on the fit window: W(log x) <= 0 from x = 1, and past double
    # precision near sigma = 1; each once exited 2 inside the decay-fit
    # stage, after psi.csv was written, naming an overflow or W's domain
    ("decay-fit", ["--fit-xmin", "1", "--fit-xmax", "1000"], "fit_xmin"),
    ("decay-fit", ["--fit-xmin", "1e-300"], "fit_xmin"),
    ("decay-fit", ["--sigma", "1.000001"], "sigma"),
    # under fit_decay's two decades: once exited 2 inside the decay-fit
    # stage, after psi.csv, psi_hat.csv and wavelet_manifest.json
    ("decay-fit", ["--fit-xmin", "100", "--fit-xmax", "200"], "fit_xmax"),
    ("decay-fit", ["--fit-xmax", "9000"], "fit_xmax"),
    # L/N underflows to 0: once a divide-by-zero warning in _validate
    ("all", ["--period", "5e-324"], "fit_xmax"),
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
], ids=["xmin-0", "fit-xmax-past-lattice", "out-in-subdir", "out-empty",
        "out-report-json", "points-1e30", "kpoints-1e30", "fit-points-1e30",
        "fit-xmin-1", "fit-xmin-1e-300", "fit-sigma-1.000001", "fit-span-0.3-decades",
        "fit-span-1.95-decades", "period-5e-324", "a-5e-324",
        "moll-sigma-1100",
        "all-sigma-1100", "tau-1e308", "sigma-1e308", "sigma-1100",
        "sigma-under-sigma-min"])
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


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_dir_naming_a_file_exits_2_writing_nothing(tmp_path, capsys, under):
    # once a FileExistsError or a NotADirectoryError from the output
    # directory's mkdir: a traceback and exit 1
    blocker = tmp_path / "f"
    blocker.write_text("x")
    out = blocker / "sub" if under else blocker
    rc = main(["lambert-table", "--out-dir", str(out)])
    assert rc == 2
    assert "'out_dir'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "x"


def test_fit_window_check_is_decay_envelopes():
    # around the largest admitted fit_xmax, _validate rejects exactly the
    # configs whose envelope window decay_envelope finds off the lattice;
    # fit_xmin = 10 keeps the window over fit_decay's two decades
    cfg = RunConfig(period=4096.0, samples=4096, fit_xmin=10.0)
    window = envelope_window(lambertwave.BellEvaluator(cfg.a))
    half = window / 2.0
    lattice = lambertwave.GridFunction(-2048.0, 1.0, np.zeros(4096))
    edge = 2047.0 - half
    verdicts = set()
    for fit_xmax in (edge - 0.5, np.nextafter(edge, 0.0), edge,
                     np.nextafter(edge, np.inf), edge + 0.5):
        cfg.fit_xmax = float(fit_xmax)
        try:
            decay_envelope(lattice, cli._fit_grid(cfg), window)
            fits = True
        except InputError:
            fits = False
        verdicts.add(fits)
        cli._validate(cfg)  # the check is for commands that run decay_fit
        if fits:
            cli._validate(cfg, ("decay_fit",))
        else:
            with pytest.raises(InputError, match="fit_xmax"):
                cli._validate(cfg, ("decay_fit",))
    assert verdicts == {True, False}


def test_fit_window_span_check_is_fit_decays():
    # around the least admitted fit_xmax, _validate rejects exactly the
    # windows whose points, every one usable, fit_decay finds under two
    # decades; the envelope is exp(-T_sigma), a fit no other gate rejects
    cfg = RunConfig()
    edge = 99.0 * cfg.fit_xmin
    verdicts = set()
    for fit_xmax in (edge - 0.5, np.nextafter(edge, 0.0), edge,
                     np.nextafter(edge, np.inf), edge + 0.5):
        cfg.fit_xmax = float(fit_xmax)
        xg = cli._fit_grid(cfg)
        env = np.exp(-lambert_regressor(xg, cfg.sigma))
        table = EnvelopeTable(x=xg, env=env, usable=np.ones(len(xg), bool),
                              window=1.0, dropped=0)
        try:
            fit_decay(table, cfg.sigma)
            fits = True
        except VerificationError as exc:
            assert "decades" in str(exc)
            fits = False
        verdicts.add(fits)
        cli._validate(cfg)  # the check is for commands that run decay_fit
        if fits:
            cli._validate(cfg, ("decay_fit",))
        else:
            with pytest.raises(InputError, match="'fit_xmax'.*2 decades"):
                cli._validate(cfg, ("decay_fit",))
    assert verdicts == {True, False}


def test_envelope_under_the_floor_fails_the_fit(tmp_path, monkeypatch, capsys):
    # 29 usable points of 30 is a numeric limit of the wavelet, not a usage
    # error: the fit fails (exit 1), and both JSON files record it
    def sparse(lattice, x_grid, window, **kw):
        table = decay_envelope(lattice, x_grid, window, **kw)
        table.usable[29:] = False
        return table

    monkeypatch.setattr(cli, "decay_envelope", sparse)
    rc = main(["decay-fit", *FAST_SYNTH, "--fit-points", "30",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "need >= 30 usable envelope points, got 29" in capsys.readouterr().err
    man = json.loads((tmp_path / "manifest.json").read_text())
    report = json.loads((tmp_path / "report.json").read_text())
    assert (man["exit_code"], man["status"], report["status"]) == (1, "fail", "fail")
    assert man["failing"]["stage"] == "decay_fit"


def test_config_ranges_admit_their_ends():
    for cfg in (RunConfig(samples=2 ** 12), RunConfig(samples=2 ** 24),
                RunConfig(fit_points=2 ** 12),
                RunConfig(fit_xmin=math.nextafter(1.0, 2.0))):
        cli._validate(cfg, ("decay_fit",))


@pytest.mark.parametrize("samples", [2 ** 24 + 2, 2 ** 40])
def test_samples_capped_before_any_allocation(samples):
    # 2^40 samples would reach a (2, 2^39) transform buffer; only _validate runs
    with pytest.raises(InputError, match="'samples'"):
        cli._validate(RunConfig(samples=samples))


@pytest.mark.parametrize("field, cap", [("fit_points", 2 ** 12)])
def test_table_sizes_capped_before_any_allocation(monkeypatch, field, cap):
    # 10^30 fit points once reached np.logspace inside _validate; the caps
    # are checked before the fit grid is formed
    def gridded(cfg):
        raise AssertionError("the fit grid was formed")

    monkeypatch.setattr(cli, "_fit_grid", gridded)
    cli._validate(RunConfig(**{field: cap}))
    for n in (cap + 1, 10 ** 30):
        with pytest.raises(InputError, match=f"'{field}'"):
            cli._validate(RunConfig(**{field: n}), ("decay_fit",))


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
    _fit_flag("--fit-xmin", st.floats(1e-3, 1e3)),
    _fit_flag("--fit-xmax", st.floats(1e3, 1e5)),
    _fit_flag("--fit-points", st.integers(30, 2 ** 12)),
), max_size=4).map(lambda fl: ["decay-fit"] + [t for f in fl for t in f])


@settings(max_examples=200, deadline=None)
@given(argv=_FIT_ARGVS)
def test_fuzzed_decay_fit_argvs_validate_or_fit(argv):
    # the validation path alone, no lattice: a config either is refused
    # with an InputError, or gives a finite T_sigma on its fit grid, warning
    # free (tier-1 turns a RuntimeWarning into an error)
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
    assert np.all(np.isfinite(lambert_regressor(cli._fit_grid(cfg), cfg.sigma)))


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
    assert cfg.samples % 2 == 0 and 2 ** 12 <= cfg.samples <= 2 ** 24
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
    # every field is recorded, and no certificate gate is a field, nor any
    # extent but the decay fit's window, nor any artifact's extent or name
    assert set(cfg) == {f.name for f in dataclasses.fields(RunConfig)}
    assert len(cfg) == 9
    assert not {"gram_tol", "dyadic_tol", "completeness_tol", "r2_min",
                "env_floor", "mixed_s", "mixed_tau", "gram_m", "gram_n",
                "dyadic_window", "deriv_orders", "mixed_k_max",
                "mixed_q_max", "freq_pow", "psi_xmax", "moll_out", "xmin",
                "xmax", "points", "log", "kmin", "kmax", "kpoints"} & set(cfg)
    assert cfg["sigma"] == 3.0


def test_all_reruns_byte_identical(tmp_path):
    args = [
        "all", *FAST_SYNTH,
        "--config", str(_fast_all_config(tmp_path)),
    ]
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


def _fast_all_config(tmp_path):
    cfg = tmp_path / "fast_all.json"
    cfg.write_text(json.dumps({
        "fit_xmin": 100.0,
        "fit_xmax": 12800.0,
        "fit_points": 30,
    }))
    return cfg


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
