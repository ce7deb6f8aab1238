"""Pipeline orchestration and artifact emission.

Single binary with subcommands.  The ``STAGES`` and ``COMMANDS`` tables
declare every stage and subcommand once: a subcommand runs its stages in
order, and its flags are named and typed by the ``RunConfig`` fields they
set.  The config sets what is built and how much of it is checked, never a
certificate's gate: each gate is fixed in the function that checks it.
Configuration precedence is CLI flags over a JSON config file over
built-in defaults.  Artifacts are CSV (17 significant digits, LF line
endings, header row) plus a JSON manifest with the complete resolved
configuration, checksums, and timings.  Exit codes (the ``EXITS`` table):
0 success, 1 verification failure, 2 usage/config error, 3 numeric or
resolution error, and 1 for any other error.  Config errors exit before
any stage runs and write nothing; once the stages start, every exit, an
exception of any class included, leaves both JSON files, and the manifest
records its exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np
import scipy

from . import __version__
from .bell import BellEvaluator, WaveletBuild, build_wavelet
from .errors import (
    ConvergenceError,
    DomainError,
    InputError,
    LambertwaveError,
    ResolutionError,
    VerificationError,
)
from .gevrey import SIGMA_MAX, SequenceParams, assoc_t_exact, log_m2
from .grids import GridSpec
from .lambert import lambert_w0, w_bounds_check
from .mollifier import build_mollifier, derivative_bound_audit
from .verify import (
    DerivativeDecayRow,
    completeness_check,
    decay_envelope,
    derivative_decay_check,
    dyadic_sum_check,
    envelope_window,
    fit_decay,
    gram_matrix,
    intercept_growth_fit,
    mixed_bound_audit,
)

ENV_OUT_DIR = "LAMBERTWAVE_OUT"
AUDIT_N_MAX = 8  # highest derivative order of the mollifier bound audit
# the CSV files the stages write under fixed names; moll_out may name none
STAGE_CSVS = ("lambert_table.csv", "assoc_func.csv", "psi_hat.csv", "psi.csv",
              "gram.csv", "dyadic.csv", "envelope.csv", "mixed.csv")


@dataclass
class RunConfig:
    # construction
    sigma: float = 2.0
    a: float = math.pi / 6.0
    freq_pow: int = 16
    period: float = 2.0 ** 18
    samples: int = 2 ** 22
    # verification
    gram_m: int = 2
    gram_n: int = 8
    dyadic_window: int = 6
    fit_xmin: float = 1e2
    fit_xmax: float = 3e4
    fit_points: int = 36
    deriv_orders: str = "1,2,4,8"
    mixed_k_max: int = 8
    mixed_q_max: int = 8
    # tables
    xmin: float = 1e-6
    xmax: float = 1e8
    points: int = 1000
    log: bool = True
    tau: float = 1.0
    kmin: float = 1e3
    kmax: float = 1e12
    kpoints: int = 40
    psi_xmax: float = 512.0
    # io
    out_dir: str = ""
    moll_out: str = "phi.csv"


def _validate(cfg: RunConfig, stages: Iterable[str] = ()) -> None:
    """InputError for the first config field out of its range; the fit
    window is checked only when one of ``stages`` reads it."""
    checks = [
        ("sigma", 1.0 < cfg.sigma < SIGMA_MAX,
         f"must lie in (1, {SIGMA_MAX:g}), where 2^sigma is a finite double"),
        ("a", 0.0 < cfg.a < math.pi / 3.0,
         f"must lie in (0, pi/3 = {math.pi / 3.0:.16g})"),
        ("freq_pow", 10 <= cfg.freq_pow <= 24, "must lie in [10, 24]"),
        ("period", cfg.period > 0, "must be positive"),
        ("samples", 2 ** 12 <= cfg.samples <= 2 ** 24 and cfg.samples % 2 == 0,
         "must be even and lie in [2^12, 2^24]"),
        ("moll_out", Path(cfg.moll_out).name == cfg.moll_out
         and cfg.moll_out.endswith(".csv") and len(cfg.moll_out) > 4
         and cfg.moll_out not in STAGE_CSVS,
         f"must be a bare file name ending in .csv, none of {', '.join(STAGE_CSVS)}"),
        ("gram_m", cfg.gram_m >= 0, "must be nonnegative"),
        ("gram_n", cfg.gram_n >= 0, "must be nonnegative"),
        # the Gram pairs grow as the members squared: 524,800 pairs at 1024
        ("gram_n", (2 * cfg.gram_m + 1) * (2 * cfg.gram_n + 1) <= 1024,
         f"with gram_m = {cfg.gram_m}, must keep the (2 gram_m + 1)(2 gram_n + 1) "
         "Gram members at most 1024"),
        ("dyadic_window", 1 <= cfg.dyadic_window <= 30,
         "must lie in [1, 30] (the scale guard of psi_hat)"),
        ("mixed_k_max", 0 <= cfg.mixed_k_max <= 10, "must lie in [0, 10]"),
        ("mixed_q_max", 0 <= cfg.mixed_q_max <= 10, "must lie in [0, 10]"),
        ("points", 2 <= cfg.points <= 2 ** 20, "must lie in [2, 2^20]"),
        ("kpoints", 20 <= cfg.kpoints <= 2 ** 16, "must lie in [20, 2^16]"),
        ("fit_points", 30 <= cfg.fit_points <= 2 ** 12, "must lie in [30, 2^12]"),
        ("tau", cfg.tau > 0 and cfg.sigma < SIGMA_MAX
         and math.isfinite(log_m2(cfg.tau, cfg.sigma)),
         f"must be positive and keep log M_2 = tau 2^sigma log 2 finite "
         f"(sigma = {cfg.sigma})"),
        ("xmin", cfg.xmin > 0 if cfg.log else cfg.xmin >= 0,
         "must be positive with log spacing, nonnegative without"),
        ("xmax", cfg.xmax > cfg.xmin, "must exceed xmin"),
        ("kmin", cfg.kmin >= 1e2, "must be at least 1e2"),
        ("kmax", 1e14 >= cfg.kmax > cfg.kmin, "must lie in (kmin, 1e14]"),
        ("fit_xmax", cfg.fit_xmax > cfg.fit_xmin > 0, "must exceed fit_xmin > 0"),
        ("psi_xmax", cfg.psi_xmax > 0, "must be positive"),
    ]
    for name, ok, msg in checks:
        if not ok:
            raise InputError(f"config field '{name}': {msg}; got {getattr(cfg, name)}")
    _parse_orders(cfg.deriv_orders)
    if "decay_fit" in stages:
        # decay_envelope's bound on the lattice x0 = -L/2, dx = L/N; a window
        # that starts before x0 at fit_xmin also ends past the last node
        half = envelope_window(BellEvaluator(cfg.a)) / 2.0
        x0, dx = -cfg.period / 2.0, cfg.period / cfg.samples
        if np.ceil((_fit_grid(cfg)[-1] + half - x0) / dx) >= cfg.samples:
            raise InputError(
                f"config field 'fit_xmax': its envelope window (half-width "
                f"{half:.6g}) must end by the last lattice node L/2 - L/N = "
                f"{x0 + dx * (cfg.samples - 1):.9g}; got {cfg.fit_xmax}"
            )


def _fit_grid(cfg: RunConfig) -> np.ndarray:
    """The decay fit's points: ``fit_points`` log-spaced over the fit window."""
    lo, hi = math.log10(cfg.fit_xmin), math.log10(cfg.fit_xmax)
    return np.logspace(lo, hi, cfg.fit_points)


# ---------------------------------------------------------------------------
# Deterministic artifact writing
# ---------------------------------------------------------------------------

def write_csv(path: Path, header, columns) -> None:
    """One row per entry of the equal-length ``columns``: integer columns
    as integers, every other column at 17 significant digits."""
    columns = [np.asarray(c) for c in columns]
    row_fmt = ",".join(
        "{:d}" if np.issubdtype(c.dtype, np.integer) else "{:.17g}" for c in columns
    ) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(map(row_fmt.format, *(c.tolist() for c in columns))))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_json(path: Path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

@dataclass
class Run:
    """What the stages of one run share.  Each stage reads ``cfg``, writes
    its artifacts under ``out`` and its assertions into ``report``, and
    returns the artifact paths; the wavelet build is left in ``wb`` for the
    stages after it."""

    cfg: RunConfig
    out: Path
    report: dict = field(default_factory=dict)
    wb: Optional[WaveletBuild] = None


def stage_lambert_table(run: Run) -> list:
    cfg = run.cfg
    if cfg.log:
        xs = np.logspace(math.log10(cfg.xmin), math.log10(cfg.xmax), cfg.points)
    else:
        xs = np.linspace(cfg.xmin, cfg.xmax, cfg.points)
    w = lambert_w0(xs)
    resid = np.abs(w * np.exp(w) - xs) / np.maximum(1.0, xs)
    lo = np.full_like(xs, np.nan)
    hi = np.full_like(xs, np.nan)
    mask = xs >= np.e
    if np.any(mask):
        rep = w_bounds_check(xs[mask])
        lo[mask] = rep.lower
        hi[mask] = rep.upper
    path = run.out / "lambert_table.csv"
    write_csv(path, ["x", "w", "residual", "lower_bound", "upper_bound"], [xs, w, resid, lo, hi])
    return [path]


def stage_assoc_func(run: Run) -> list:
    cfg = run.cfg
    params = SequenceParams(cfg.tau, cfg.sigma)
    ks = np.logspace(math.log10(cfg.kmin), math.log10(cfg.kmax), cfg.kpoints)
    reps = [assoc_t_exact(float(k), params) for k in ks]
    path = run.out / "assoc_func.csv"
    cols = ["k", "t_exact", "argmax_p", "t_asym", "ratio"]
    write_csv(path, cols, [[getattr(rep, c) for rep in reps] for c in cols])
    return [path]


def stage_build_mollifier(run: Run) -> list:
    cfg, out = run.cfg, run.out
    build = build_mollifier(cfg.sigma, GridSpec.symmetric(1.5, 17))
    phi_path = out / cfg.moll_out
    write_csv(phi_path, ["x", "phi"], [build.phi.x(), build.phi.values])
    # the audit needs three factors; with fewer kept it is skipped
    n_audit = max(0, min(AUDIT_N_MAX, len(build.scales) - 2))
    audit = derivative_bound_audit(build, n_audit) if n_audit else None
    prov = {
        "sigma": cfg.sigma,
        "thresholds": build.thresholds,
        "scales": build.scales,
        "trunc_index": build.trunc_index,
        "mass": build.phi.integral(),
        "evenness": build.evenness,
        "discarded_tail_mass": build.discarded_tail_mass,
        "bounds_table": [
            {"n": r.n, "measured": r.measured, "bound": r.bound, "ratio": r.ratio}
            for r in (audit.rows if audit else [])
        ],
        "tau_eff": audit.tau_eff if audit else None,
        "log_c_fit": audit.log_c_fit if audit else None,
    }
    prov_path = out / (Path(cfg.moll_out).stem + ".provenance.json")
    write_json(prov_path, prov)
    run.report["mollifier"] = {
        "mass": build.phi.integral(),
        "evenness": build.evenness,
        "trunc_index": build.trunc_index,
        "audit_n_max": n_audit,
    }
    return [phi_path, prov_path]


def stage_build_wavelet(run: Run) -> list:
    cfg = run.cfg
    run.wb = build_wavelet(
        sigma=cfg.sigma,
        a=cfg.a,
        freq_pow=cfg.freq_pow,
        L=cfg.period,
        N=cfg.samples,
    )
    return []


def stage_wavelet_artifacts(run: Run) -> list:
    cfg, wb, out = run.cfg, run.wb, run.out
    xi = wb.freq.points()
    ph = wb.ph.psi_hat_at(xi)
    ph_path = out / "psi_hat.csv"
    write_csv(ph_path, ["xi", "re", "im"], [xi, ph.real, ph.imag])
    grid = wb.synthesis.grid
    x = grid.x()
    keep = np.abs(x) <= cfg.psi_xmax
    psi_path = out / "psi.csv"
    write_csv(psi_path, ["x", "psi"], [x[keep], grid.values[keep]])
    man = {
        "sigma": wb.sigma,
        "a": wb.a,
        "freq_grid": {"xi0": wb.freq.x0, "dxi": wb.freq.dx, "n": wb.freq.n},
        "lattice": {"period": wb.L, "samples": wb.N, "dx": wb.L / wb.N},
        "support": [-wb.ph.band[1], wb.ph.band[1]],
        "l2_norm": wb.synthesis.l2_norm,
        "imag_max": wb.synthesis.imag_max,
        "periodization_diff": wb.synthesis.periodization_diff,
        "ramp_half_width": wb.ph.ramp_half_width,
        "psi_csv_xmax": cfg.psi_xmax,
    }
    man_path = out / "wavelet_manifest.json"
    write_json(man_path, man)
    run.report["wavelet"] = {
        "l2_norm": wb.synthesis.l2_norm,
        "imag_max": wb.synthesis.imag_max,
        "periodization_diff": wb.synthesis.periodization_diff,
    }
    return [ph_path, psi_path, man_path]


def stage_verify_onw(run: Run) -> list:
    cfg, wb, out = run.cfg, run.wb, run.out
    gram = gram_matrix(
        wb.ph,
        m_range=(-cfg.gram_m, cfg.gram_m),
        n_range=(-cfg.gram_n, cfg.gram_n),
    )
    gram_path = out / "gram.csv"
    write_csv(gram_path, ["m1", "n1", "m2", "n2", "re", "im"],
              [*gram.pairs, gram.values.real, gram.values.imag])
    dy = dyadic_sum_check(wb.ph, m_window=cfg.dyadic_window)
    dy_path = out / "dyadic.csv"
    write_csv(dy_path, ["xi", "s"], [dy.xi, dy.s])
    comp = completeness_check(wb.ph)
    run.report["verify_onw"] = {
        "max_offdiag": gram.max_offdiag,
        "max_diag_dev": gram.max_diag_dev,
        "dyadic_max_dev": dy.max_dev,
        "completeness_ratio": comp.ratio,
        "completeness_windows": {str(k): v for k, v in comp.n_used.items()},
    }
    return [gram_path, dy_path]


def stage_decay_fit(run: Run) -> list:
    cfg, wb = run.cfg, run.wb
    xg = _fit_grid(cfg)
    grid = wb.synthesis.grid
    table = decay_envelope(grid, xg, envelope_window(wb.ph))
    fit = fit_decay(table, cfg.sigma)
    env_path = run.out / "envelope.csv"
    write_csv(env_path, fit.comparator_columns, fit.comparator_table.T)
    # the n = 0 row is the fit itself: fit_decay has the same slope and r^2
    # gates as derivative_decay_check, on at least as many points
    rows = [DerivativeDecayRow(0, fit.h_fit, fit.intercept, fit.r_squared, grid.sup())]
    rows += wb.lattices(
        _parse_orders(cfg.deriv_orders),
        lambda n, lattice: derivative_decay_check(lattice, n, xg, table.window, cfg.sigma),
    )
    growth = intercept_growth_fit(rows)
    run.report["decay_fit"] = {
        "h_fit": fit.h_fit,
        "h_stderr": fit.h_stderr,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "x_range": list(fit.x_range),
        "shape_checks": fit.shape_checks,
        "crossovers": fit.crossovers,
        "window": table.window,
        "dropped_points": table.dropped,
        "derivatives": [
            {"n": r.n, "h_fit": r.h_fit, "intercept": r.intercept,
             "r_squared": r.r_squared, "sup": r.sup}
            for r in rows
        ],
        "intercept_growth": {
            "log_c_ls": growth.log_c_ls,
            "s_ls": growth.s_ls,
            "log_c_at_s1": growth.log_c_at_s1,
        },
    }
    return [env_path]


def stage_mixed_audit(run: Run) -> list:
    cfg, wb = run.cfg, run.wb
    rep = mixed_bound_audit(
        wb.fronts(range(cfg.mixed_q_max + 1)),
        k_max=cfg.mixed_k_max,
        q_max=cfg.mixed_q_max,
        sigma=cfg.sigma,
    )
    path = run.out / "mixed.csv"
    k, q = np.indices(rep.sup_table.shape)
    write_csv(path, ["k", "q", "sup"], [k.ravel(), q.ravel(), rep.sup_table.ravel()])
    run.report["mixed_audit"] = {
        "log_c": rep.log_c,
        "log_a": rep.log_a,
        "log_b": rep.log_b,
    }
    return [path]


def _parse_orders(spec: str) -> list:
    try:
        orders = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"config field 'deriv_orders': {spec!r} is not a comma list") from exc
    if any(n < 1 or n > 12 for n in orders) or len(set(orders)) < len(orders):
        raise InputError("config field 'deriv_orders': orders must be distinct "
                         "and lie in [1, 12]")
    return orders


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

STAGES: Dict[str, Callable[[Run], list]] = {
    # the name is also the stage's manifest timing key and its failing.stage
    "lambert_table": stage_lambert_table,
    "assoc_func": stage_assoc_func,
    "build_mollifier": stage_build_mollifier,
    "build_wavelet": stage_build_wavelet,
    "wavelet_artifacts": stage_wavelet_artifacts,
    "verify_onw": stage_verify_onw,
    "decay_fit": stage_decay_fit,
    "mixed_audit": stage_mixed_audit,
}


@dataclass(frozen=True)
class Command:
    """One subcommand: its help line, its stages in run order, the config
    fields it takes as ``--field-name`` flags of the field's type, and the
    flags spelled otherwise, as (option, field, argparse settings)."""

    help: str
    stages: Tuple[str, ...]
    flags: Tuple[str, ...]
    aliases: Tuple[Tuple[str, str, dict], ...] = ()


_WAVELET = ("build_wavelet", "wavelet_artifacts")
_LATTICE = ("sigma", "a", "freq_pow", "samples", "period")

COMMANDS: Dict[str, Command] = {
    "lambert-table": Command(
        "table of W values, residuals, bounds",
        ("lambert_table",),
        ("xmin", "xmax", "points"),
        (("--log", "log", {"action": "store_true"}),
         ("--linear", "log", {"action": "store_false"})),
    ),
    "assoc-func": Command(
        "associated function exact/asymptotic table",
        ("assoc_func",),
        ("tau", "sigma", "kmin", "kmax", "kpoints"),
        (("--points", "kpoints", {"help": "alias for --kpoints"}),),
    ),
    "build-mollifier": Command(
        "convolution-cascade cutoff + provenance",
        ("build_mollifier",),
        ("sigma",),
        (("--out", "moll_out", {"help": "cutoff CSV file name, in the output directory"}),),
    ),
    "build-wavelet": Command(
        "bell, transform, and lattice synthesis",
        _WAVELET,
        _LATTICE + ("psi_xmax",),
    ),
    "verify-onw": Command(
        "Gram matrix, dyadic sum, completeness",
        _WAVELET + ("verify_onw",),
        _LATTICE + ("gram_m", "gram_n", "dyadic_window"),
    ),
    "decay-fit": Command(
        "envelope extraction and Lambert-form regression",
        _WAVELET + ("decay_fit",),
        _LATTICE + ("fit_xmin", "fit_xmax", "fit_points", "deriv_orders"),
    ),
    "mixed-audit": Command(
        "moment-derivative bound feasibility",
        _WAVELET + ("mixed_audit",),
        _LATTICE + ("mixed_k_max", "mixed_q_max"),
    ),
    "all": Command("run every stage", tuple(STAGES), _LATTICE),
}


# exception class -> (exit code, message prefix); the first class of an
# exception's MRO found here decides, and any other exception exits 1
EXITS: Dict[type, Tuple[int, str]] = {
    VerificationError: (1, "verification failure"),
    InputError: (2, "error"),
    DomainError: (2, "error"),
    ResolutionError: (3, "numeric error"),
    ConvergenceError: (3, "numeric error"),
}


def _exit(exc: BaseException) -> Tuple[int, str]:
    return next((EXITS[c] for c in type(exc).__mro__ if c in EXITS), (1, "error"))


def run_pipeline(command: str, cfg: RunConfig) -> dict:
    """Execute the stages of one subcommand; returns the manifest.

    A stage that raises ends the run: the report and the manifest record
    the stage (status "fail" for a VerificationError, "error" with the
    exception's class and message for any other), the manifest the exit
    code ``EXITS`` gives it (0 on pass), and the exception propagates.
    """
    _validate(cfg, COMMANDS[command].stages)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = Run(cfg, out)
    artifacts: list = []
    timings: dict = {}
    failing = raised = None
    status = "pass"
    for name in COMMANDS[command].stages:
        t0 = time.perf_counter()
        try:
            artifacts.extend(STAGES[name](run))
        except VerificationError as exc:
            failing = {"stage": name, "assertion": str(exc)}
            status, raised = "fail", VerificationError(f"{name}: {exc}", detail=failing)
            break
        except Exception as exc:
            failing = {"stage": name, "exception": type(exc).__name__,
                       "message": str(exc)}
            status, raised = "error", exc
            break
        timings[name] = time.perf_counter() - t0

    report_path = out / "report.json"
    write_json(
        report_path,
        {
            "command": command,
            "assertions": run.report,
            "status": status,
            "failing": failing,
            "versions": {
                "lambertwave": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": sys.version.split()[0],
            },
            "grids": {
                "freq_pow": cfg.freq_pow,
                "period": cfg.period,
                "samples": cfg.samples,
            },
        },
    )
    artifacts.append(report_path)

    manifest = {
        "command": command,
        "config": dataclasses.asdict(cfg),
        "artifacts": {p.name: _sha256(p) for p in artifacts},
        "timings": timings,
        "status": status,
        "failing": failing,
        "exit_code": _exit(raised)[0] if raised else 0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    write_json(out / "manifest.json", manifest)
    if raised is not None:
        raise raised
    return manifest


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


_TYPE_NAMES = {"int": "an integer", "float": "a finite number", "str": "a string",
               "bool": "true or false"}


def _typed(name: str, val):
    """``val`` as config field ``name``'s type: an integral float is taken
    for an int and an int for a float, converted to the field's type;
    anything else is an InputError."""
    kind = _FIELD_TYPES[name]
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if kind == "int" and number and (isinstance(val, int) or val.is_integer()):
        return int(val)
    if kind == "float" and number and abs(val) <= sys.float_info.max:  # finite
        return float(val)
    if kind == "str" and isinstance(val, str) or kind == "bool" and isinstance(val, bool):
        return val
    raise InputError(f"config field '{name}': expected {_TYPE_NAMES[kind]}; got {val!r}")


_ARG_TYPES = {"int": int, "float": float, "str": str}


def _add_flag(p: argparse.ArgumentParser, option: str, name: str, **kw) -> None:
    """``option`` sets config field ``name``; a value is parsed as the
    field's type unless ``kw`` names an argparse action."""
    if "action" not in kw:
        kw["type"] = _ARG_TYPES[_FIELD_TYPES[name]]
    p.add_argument(option, dest=name, default=None, **kw)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lambertwave",
        description="Band-limited wavelets with Lambert-form decay: build and certify.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for name in spec.flags:
            _add_flag(p, f"--{name.replace('_', '-')}", name)
        for option, name, kw in spec.aliases:
            _add_flag(p, option, name, **kw)
        p.add_argument("--config", help="JSON file of config key/value pairs")
        _add_flag(p, "--out-dir", "out_dir", help="output directory")
    return ap


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = dataclasses.asdict(RunConfig())
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            loaded = json.loads(Path(cfg_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"config file {cfg_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise InputError(f"config file {cfg_path}: expected a JSON object")
        for key, val in loaded.items():
            if key not in values:
                raise InputError(f"config file {cfg_path}: unknown key '{key}'")
            values[key] = val
    for key in values:
        arg_val = getattr(args, key, None)
        if arg_val is not None:
            values[key] = arg_val
    if not values["out_dir"]:
        values["out_dir"] = os.environ.get(ENV_OUT_DIR, "lambertwave-out")
    return RunConfig(**{key: _typed(key, val) for key, val in values.items()})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors (2) and --help (0)
        return exc.code
    try:
        cfg = resolve_config(args)
        run_pipeline(args.command, cfg)
    except LambertwaveError as exc:
        code, kind = _exit(exc)
        print(f"{kind}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
