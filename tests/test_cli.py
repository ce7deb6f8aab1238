"""CLI surface: subcommands, exit codes, config precedence, determinism."""

import argparse
import dataclasses
import functools
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
    decay_envelope,
    envelope_window,
)
from lambertwave.cli import RunConfig, build_parser, main, write_csv

FAST = [
    "--freq-pow", "13",
]
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
    rc = main([
        "lambert-table", "--xmin", "1e-3", "--xmax", "1e6",
        "--points", "50", "--log", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    header, rows = read_csv(tmp_path / "lambert_table.csv")
    assert header == ["x", "w", "residual", "lower_bound", "upper_bound"]
    assert len(rows) == 50
    x0, w0 = float(rows[0][0]), float(rows[0][1])
    assert abs(w0 * math.exp(w0) - x0) <= 1e-12 * max(1.0, x0)
    assert rows[0][3] == "nan"  # bounds apply only from e upward
    assert json.loads((tmp_path / "manifest.json").read_text())["exit_code"] == 0


def test_assoc_func(tmp_path):
    rc = main([
        "assoc-func", "--tau", "1", "--sigma", "2",
        "--kmin", "1e3", "--kmax", "1e9", "--points", "25",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    header, rows = read_csv(tmp_path / "assoc_func.csv")
    assert header == ["k", "t_exact", "argmax_p", "t_asym", "ratio"]
    assert len(rows) == 25
    ratios = np.array([float(r[4]) for r in rows])
    assert ratios.max() / ratios.min() <= 10.0


def test_build_mollifier(tmp_path):
    rc = main(["build-mollifier", "--sigma", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "phi.csv")
    assert header == ["x", "phi"]
    prov = json.loads((tmp_path / "phi.provenance.json").read_text())
    assert prov["thresholds"] == [1, 2, 4, 6, 8, 10, 13, 15]
    assert prov["bounds_table"]
    assert all(r["measured"] <= r["bound"] * 1.001 for r in prov["bounds_table"])
    mass = np.trapezoid(
        [float(r[1]) for r in rows],
        dx=float(rows[1][0]) - float(rows[0][0]),
    )
    assert abs(mass - 1.0) <= 1e-8


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
    # sigma = 4 keeps three factors: the audit reaches n = 1, short of the
    # two orders n >= 2 the growth fit needs, so the fit is left out
    rc = main(["build-mollifier", "--sigma", "4", "--out-dir", str(tmp_path)])
    assert rc == 0
    prov = json.loads((tmp_path / "phi.provenance.json").read_text())
    assert len(prov["scales"]) == 3
    assert [r["n"] for r in prov["bounds_table"]] == [0, 1]
    assert prov["tau_eff"] is None and prov["log_c_fit"] is None


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
    # double precision in the associated-function stage
    rc = main([command, "--sigma", "1.0001", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "T_sigma overflows" in capsys.readouterr().err
    for name in ("report.json", "manifest.json"):
        doc = json.loads((tmp_path / name).read_text())
        assert doc["status"] == "error"
        assert doc["failing"]["stage"] == "assoc_func"
        assert doc["failing"]["exception"] == "DomainError"


def test_build_wavelet(tmp_path):
    rc = main([
        "build-wavelet", *FAST, *FAST_SYNTH,
        "--psi-xmax", "64", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    man = json.loads((tmp_path / "wavelet_manifest.json").read_text())
    assert abs(man["l2_norm"] - 1.0) <= 1e-8
    assert man["imag_max"] <= 1e-12
    header, rows = read_csv(tmp_path / "psi_hat.csv")
    assert header == ["xi", "re", "im"]
    header, rows = read_csv(tmp_path / "psi.csv")
    assert header == ["x", "psi"]
    xs = [float(r[0]) for r in rows]
    assert max(abs(x) for x in xs) <= 64.0
    timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
    assert "wavelet_artifacts" in timings
    # no cutoff grid is built, so none is recorded
    report = json.loads((tmp_path / "report.json").read_text())
    assert "grid_pow" not in report["grids"]


def test_verify_onw(tmp_path):
    rc = main([
        "verify-onw", *FAST, *FAST_SYNTH,
        "--gram-m", "1", "--gram-n", "3",
        "--out-dir", str(tmp_path),
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
    n_members = 3 * 7
    assert len(rows) == n_members * (n_members + 1) // 2
    header, _ = read_csv(tmp_path / "dyadic.csv")
    assert header == ["xi", "s"]


def test_decay_fit(tmp_path):
    rc = main([
        "decay-fit", *FAST, *FAST_SYNTH,
        "--fit-xmin", "100", "--fit-xmax", "12800", "--fit-points", "30",
        "--deriv-orders", "1,2",
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
    assert [r["n"] for r in fit["derivatives"]] == [0, 1, 2]
    header, rows = read_csv(tmp_path / "envelope.csv")
    assert header == [
        "x", "env", "T_sigma", "lambert_bound", "gevrey2", "gevrey3",
        "moritoh", "exp",
    ]


def test_mixed_audit(tmp_path):
    rc = main([
        "mixed-audit", *FAST, *FAST_SYNTH,
        "--mixed-k-max", "3", "--mixed-q-max", "3",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "pass"
    header, rows = read_csv(tmp_path / "mixed.csv")
    assert header == ["k", "q", "sup"]
    assert len(rows) == 16


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
    rc = main([command, *FAST, *FAST_SYNTH, "--out-dir", str(tmp_path)])
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
    rc = main(["build-wavelet", *FAST, "--samples", str(2 ** 14 + 1),
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
    "--sigma": "sigma", "--a": "a", "--freq-pow": "freq_pow",
    "--samples": "samples", "--period": "period",
}
COMMON = {"--config": "config", "--out-dir": "out_dir"}
OPTIONS = {
    "lambert-table": {
        "--xmin": "xmin", "--xmax": "xmax", "--points": "points",
        "--log": "log", "--linear": "log", **COMMON,
    },
    "assoc-func": {
        "--tau": "tau", "--sigma": "sigma", "--kmin": "kmin", "--kmax": "kmax",
        "--kpoints": "kpoints", "--points": "kpoints", **COMMON,
    },
    "build-mollifier": {"--sigma": "sigma", "--out": "moll_out", **COMMON},
    "build-wavelet": {
        **LATTICE, "--psi-xmax": "psi_xmax", **COMMON,
    },
    "verify-onw": {
        **LATTICE, "--gram-m": "gram_m", "--gram-n": "gram_n",
        "--dyadic-window": "dyadic_window", **COMMON,
    },
    "decay-fit": {
        **LATTICE, "--fit-xmin": "fit_xmin", "--fit-xmax": "fit_xmax",
        "--fit-points": "fit_points", "--deriv-orders": "deriv_orders", **COMMON,
    },
    "mixed-audit": {
        **LATTICE, "--mixed-k-max": "mixed_k_max", "--mixed-q-max": "mixed_q_max",
        **COMMON,
    },
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
            ns = ap.parse_args([cmd, opt] + ([] if actions[opt].nargs == 0 else ["3"]))
            if field != "config":
                # the flag sets its field, parsed as the field's type
                assert type(getattr(ns, field)).__name__ == field_types[field], opt
    ns = ap.parse_args(["lambert-table", "--linear"])
    assert ns.log is False
    assert ap.parse_args(["lambert-table"]).log is None
    # every config field is settable by some subcommand's flag
    flagged = {f for opts in OPTIONS.values() for f in opts.values()} - {"config"}
    assert flagged == set(field_types)


# five were config-file-only fields, now constants; profile_cutoff went
# with the sampled ramp profile, moll_base with the analytic base bump, and
# grid_pow and moll_cutoff with the sampled cascade build; the last seven
# set certificate gates and class weights, now fixed in verify
@pytest.mark.parametrize("key", [
    "no_such_key", "moll_base_width", "m_max", "profile_base",
    "profile_base_width", "audit_n_max", "profile_cutoff", "moll_base",
    "grid_pow", "moll_cutoff", "gram_tol", "dyadic_tol", "completeness_tol",
    "r2_min", "env_floor", "mixed_s", "mixed_tau",
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
    ("freq_pow", "17"),        # string for an int
    ("points", 7.5),           # non-integral float for an int
    ("sigma", True),           # bool for a float
    ("sigma", float("inf")),   # non-finite float
    ("deriv_orders", 5),       # number for a string
    ("deriv_orders", "1,x"),   # unparsable order list
    ("gram_m", -1),            # empty Gram window
    ("gram_n", -1),
    ("dyadic_window", 0),      # no dyadic terms
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
    ("lambert-table", ["--xmin", "0"], "xmin"),  # log spacing is the default
    ("verify-onw", ["--dyadic-window", "2000"], "dyadic_window"),
    ("verify-onw", ["--dyadic-window", "31"], "dyadic_window"),
    ("verify-onw", ["--gram-n", "100000"], "gram_n"),
    ("verify-onw", ["--gram-m", "0", "--gram-n", "512"], "gram_n"),
    # the envelope window at 7e4 runs past the last node L/2 - L/N = 65535.75
    ("decay-fit", ["--samples", "524288", "--period", "131072", "--a", "0.9",
                   "--fit-xmax", "70000"], "fit_xmax"),
    # the cutoff CSV is a bare .csv name in the output directory: not a
    # path, not empty, and not the name of report.json
    ("build-mollifier", ["--out", "sub/phi.csv"], "moll_out"),
    ("build-mollifier", ["--out", ""], "moll_out"),
    ("build-mollifier", ["--out", "report.json"], "moll_out"),
    # table sizes are capped: each was a ValueError from numpy at 10^30
    ("lambert-table", ["--points", str(10 ** 30)], "points"),
    ("assoc-func", ["--kpoints", str(10 ** 30)], "kpoints"),
    ("decay-fit", ["--fit-points", str(10 ** 30)], "fit_points"),
    # each order pair costs a lattice transform: no order twice
    ("decay-fit", ["--deriv-orders", "1,1"], "deriv_orders"),
    # 2^sigma or log M_2 = tau 2^sigma log 2 past double precision: once an
    # OverflowError in the cascade walk, or numpy overflow warnings
    ("build-mollifier", ["--sigma", "1100"], "sigma"),
    ("all", ["--sigma", "1100"], "sigma"),
    ("assoc-func", ["--tau", "1e308"], "tau"),
    ("assoc-func", ["--sigma", "1e308"], "sigma"),
    ("assoc-func", ["--sigma", "1100"], "sigma"),
], ids=["xmin-0", "dyadic-window-2000", "dyadic-window-31", "gram-n-100000",
        "gram-members-1025", "fit-xmax-past-lattice", "out-in-subdir", "out-empty",
        "out-report-json", "points-1e30", "kpoints-1e30", "fit-points-1e30",
        "deriv-orders-repeated", "moll-sigma-1100", "all-sigma-1100", "tau-1e308",
        "sigma-1e308", "sigma-1100"])
def test_out_of_range_config_exits_2_writing_nothing(tmp_path, capsys, monkeypatch,
                                                    command, args, field):
    def built(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(cli, "build_wavelet", built)
    monkeypatch.setattr(cli, "build_mollifier", built)
    out = tmp_path / "out"
    rc = main([command, *args, "--out-dir", str(out)])
    assert rc == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not out.exists()


def test_fit_window_check_is_decay_envelopes():
    # around the largest admitted fit_xmax, _validate rejects exactly the
    # configs whose envelope window decay_envelope finds off the lattice
    cfg = RunConfig(period=4096.0, samples=4096)
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


def test_config_ranges_admit_their_ends():
    for cfg in (RunConfig(dyadic_window=30), RunConfig(gram_m=0, gram_n=511),
                RunConfig(gram_m=2, gram_n=101), RunConfig(xmin=0.0, log=False),
                RunConfig(samples=2 ** 24), RunConfig(moll_out="c.csv")):
        cli._validate(cfg)


@pytest.mark.parametrize("samples", [2 ** 24 + 2, 2 ** 40])
def test_samples_capped_before_any_allocation(samples):
    # 2^40 samples would reach a (2, 2^39) transform buffer; only _validate runs
    with pytest.raises(InputError, match="'samples'"):
        cli._validate(RunConfig(samples=samples))


@pytest.mark.parametrize("field, cap", [
    ("points", 2 ** 20), ("kpoints", 2 ** 16), ("fit_points", 2 ** 12),
])
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
    # this run would pass, with psi.csv holding psi and the cutoff lost
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"moll_out": "psi.csv"}))
    out = tmp_path / "out"
    rc = main(["all", "--config", str(config), "--samples", str(2 ** 19),
               "--period", str(2.0 ** 17), "--a", "0.9", "--out-dir", str(out)])
    assert rc == 2
    assert "'moll_out'" in capsys.readouterr().err
    assert not out.exists()
    for name in cli.STAGE_CSVS:
        with pytest.raises(InputError, match="'moll_out'"):
            cli._validate(RunConfig(moll_out=name))


_HUGE_OR_BAD = st.sampled_from(["1e30", str(10 ** 30), "1e308", "-1", "-1e300", "0",
                                "nan", "inf", "-inf", "abc", "", "1e", "0x10"])


def _flag(name, in_range):
    return st.tuples(st.just(name), st.one_of(in_range.map(str), _HUGE_OR_BAD))


_FUZZ_ARGVS = st.one_of(
    st.lists(st.one_of(
        _flag("--xmin", st.floats(1e-6, 1e3)),
        _flag("--xmax", st.floats(1e3, 1e12)),
        _flag("--points", st.integers(2, 200)),
        st.tuples(st.sampled_from(["--log", "--linear"])),
    ), max_size=4).map(lambda fl: ["lambert-table"] + [t for f in fl for t in f]),
    st.lists(st.one_of(
        _flag("--tau", st.floats(0.5, 2.0)),
        _flag("--sigma", st.floats(1.1, 4.0)),
        _flag("--kmin", st.floats(1e2, 1e6)),
        _flag("--kmax", st.floats(1e6, 1e14)),
        _flag("--kpoints", st.integers(20, 40)),
        _flag("--points", st.integers(20, 40)),
    ), max_size=4).map(lambda fl: ["assoc-func"] + [t for f in fl for t in f]),
)


@settings(max_examples=200, deadline=None)
@given(argv=_FUZZ_ARGVS)
def test_fuzzed_table_argvs_exit_cleanly(argv):
    # in-range, huge, negative and non-numeric values: never a traceback,
    # and a run that reached a stage leaves both JSON files
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        rc = main(argv + ["--out-dir", str(out)])
        assert rc in (0, 2, 3)
        if rc != 2 or out.exists():
            man = json.loads((out / "manifest.json").read_text())
            assert (out / "report.json").exists()
            assert man["exit_code"] == rc


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
    cfg.write_text(json.dumps({"psi_xmax": 64, "sigma": 2}))
    args = ["build-wavelet", *FAST, *FAST_SYNTH]
    out1, out2 = tmp_path / "file", tmp_path / "flags"
    assert main(args + ["--config", str(cfg), "--out-dir", str(out1)]) == 0
    assert main(args + ["--psi-xmax", "64", "--sigma", "2", "--out-dir", str(out2)]) == 0
    for name in ("report.json", "psi.csv", "wavelet_manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    man = json.loads((out1 / "manifest.json").read_text())
    assert isinstance(man["config"]["sigma"], float)
    assert isinstance(man["config"]["psi_xmax"], float)


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"points": 31, "xmin": 1.0, "xmax": 100.0}')
    out1 = tmp_path / "o1"
    rc = main(["lambert-table", "--config", str(cfg), "--out-dir", str(out1)])
    assert rc == 0
    _, rows = read_csv(out1 / "lambert_table.csv")
    assert len(rows) == 31  # file beats defaults
    out2 = tmp_path / "o2"
    rc = main([
        "lambert-table", "--config", str(cfg), "--points", "7",
        "--out-dir", str(out2),
    ])
    assert rc == 0
    _, rows = read_csv(out2 / "lambert_table.csv")
    assert len(rows) == 7  # flags beat the file


def test_env_var_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("LAMBERTWAVE_OUT", str(target))
    rc = main(["lambert-table", "--points", "5", "--xmin", "1", "--xmax", "10"])
    assert rc == 0
    assert (target / "lambert_table.csv").exists()


def test_manifest_echoes_full_config(tmp_path):
    rc = main(["lambert-table", "--points", "5", "--out-dir", str(tmp_path)])
    assert rc == 0
    man = json.loads((tmp_path / "manifest.json").read_text())
    cfg = man["config"]
    # every field is recorded, and no certificate gate is a field
    assert set(cfg) == {f.name for f in dataclasses.fields(RunConfig)}
    assert len(cfg) == 25
    assert not {"gram_tol", "dyadic_tol", "completeness_tol", "r2_min",
                "env_floor", "mixed_s", "mixed_tau"} & set(cfg)
    assert cfg["points"] == 5


def test_all_reruns_byte_identical(tmp_path):
    args = [
        "all", *FAST, *FAST_SYNTH,
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
    # STAGE_CSVS names every other CSV an all run writes
    man = json.loads((out1 / "manifest.json").read_text())
    assert {n for n in man["artifacts"] if n.endswith(".csv")} == {"phi.csv", *cli.STAGE_CSVS}
    assert "grid_pow" not in r1["grids"]  # the cutoff grid is fixed


def _fast_all_config(tmp_path):
    cfg = tmp_path / "fast_all.json"
    cfg.write_text(json.dumps({
        "gram_m": 1,
        "gram_n": 3,
        "fit_xmin": 100.0,
        "fit_xmax": 12800.0,
        "fit_points": 30,
        "deriv_orders": "1,2",
        "mixed_k_max": 3,
        "mixed_q_max": 3,
        "kpoints": 20,
        "points": 50,
    }))
    return cfg


def test_build_mollifier_out_name(tmp_path):
    rc = main([
        "build-mollifier", "--sigma", "2", "--out", "cutoff.csv",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "cutoff.csv").exists()
    assert (tmp_path / "cutoff.provenance.json").exists()


def test_verification_failure_exits_1(tmp_path, capsys, monkeypatch):
    # the real Gram check, gated far below its fixed 1e-7, fails through main
    monkeypatch.setattr(cli, "gram_matrix", functools.partial(cli.gram_matrix, tol=1e-16))
    rc = main([
        "verify-onw", *FAST, *FAST_SYNTH,
        "--gram-m", "1", "--gram-n", "2", "--out-dir", str(tmp_path),
    ])
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


def test_assoc_scan_at_cap_exits_3(tmp_path, capsys):
    # at sigma = 1.05 the sup over p for k = 1e12 sits near p = 389626,
    # beyond the scan's cap: the run must not report a truncated sup
    rc = main([
        "assoc-func", "--sigma", "1.05", "--kmin", "1e11", "--kmax", "1e12",
        "--kpoints", "20", "--out-dir", str(tmp_path),
    ])
    assert rc == 3
    assert "cap" in capsys.readouterr().err
    failing = json.loads((tmp_path / "manifest.json").read_text())["failing"]
    assert (failing["stage"], failing["exception"]) == ("assoc_func", "ConvergenceError")
    assert not (tmp_path / "assoc_func.csv").exists()
