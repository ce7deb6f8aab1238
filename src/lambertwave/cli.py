"""Pipeline orchestration and artifact emission.

Single binary with subcommands.  The ``STAGES`` and ``COMMANDS`` tables
declare every stage and subcommand once: a subcommand runs its stages in
order, and each of its flags is ``--field-name`` of the ``RunConfig``
field it sets, typed by that field.  The config sets what is built, never
a certificate's gate or extent: each is a constant of the module that
checks it, and the stages pass data only.  Each artifact's extent and
name, the two tables' included, is fixed next to the stage that writes it.
Configuration precedence is CLI flags over a JSON config file over
built-in defaults.  Artifacts are CSV (17 significant digits, LF line
endings, header row) plus a JSON manifest with the complete resolved
configuration, checksums, and per-stage wall time, CPU time and the
process's RSS high-water mark.  Exit codes (the ``EXITS`` table):
0 success, 1 verification failure, 2 usage/config error, 3 numeric or
resolution error, and 1 for any other error.  Config errors exit before
any stage runs and write nothing; once the stages start, every exit, an
exception of any class included, leaves both JSON files, and the manifest
records its exit code.  An artifact that cannot be created or written (a
full disk) is an input error (exit 2) that names it, ``report.json``
included.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from . import __version__
from .bell import BellEvaluator, WaveletBuild, build_wavelet, check_rows
from .errors import (
    ConvergenceError,
    DomainError,
    InputError,
    LambertwaveError,
    ResolutionError,
    VerificationError,
)
from .gevrey import SIGMA_MAX, SIGMA_MIN, SequenceParams, assoc_t_exact, lambert_regressor
from .grids import GridSpec
from .lambert import lambert_w0
from .mollifier import build_mollifier, derivative_bound_audit
from .verify import (
    DERIV_ORDERS,
    FIT_X,
    MIXED_MAX,
    DerivativeDecayRow,
    completeness_check,
    decay_envelope,
    derivative_decay_check,
    dyadic_sum_check,
    envelope_window,
    fit_decay,
    gram_matrix,
    mixed_bound_audit,
    window_indices,
)

ENV_OUT_DIR = "LAMBERTWAVE_OUT"


@dataclass
class RunConfig:
    # construction
    sigma: float = 2.0
    a: float = math.pi / 6.0
    period: float = 2.0 ** 18
    samples: int = 2 ** 22
    # assoc_func.csv's class M_p = p^(tau p^sigma), with the sigma above
    tau: float = 1.0
    # io
    out_dir: str = ""


def _validate(cfg: RunConfig, stages: Iterable[str] = ()) -> None:
    """InputError for the first config field out of its range, by the rules
    of ``check_rows`` for samples (a power of two, here in [2^12, 2^24]),
    ``SequenceParams`` for tau and ``BellEvaluator`` for a among them; where
    ``stages`` runs the decay fit, also unless its grid ``FIT_X`` keeps each
    envelope window on the lattice and T_sigma finite."""
    checks = [
        ("sigma", SIGMA_MIN <= cfg.sigma < SIGMA_MAX,
         f"must lie in [{SIGMA_MIN!r}, {SIGMA_MAX:g}), where 2^sigma is a finite double"),
        ("period", cfg.period > 0, "must be positive"),
        ("samples", 2 ** 12 <= cfg.samples <= 2 ** 24, "must lie in [2^12, 2^24]"),
    ]
    for name, ok, msg in checks:
        if not ok:
            raise InputError(f"config field '{name}': {msg}; got {getattr(cfg, name)}")
    # the lattice transform's own rule for samples, the weight sequence's for
    # tau and the wavelet's for a
    for name, rule in (("samples", lambda: check_rows(cfg.samples)),
                       ("tau", lambda: SequenceParams(cfg.tau, cfg.sigma)),
                       ("a", lambda: BellEvaluator(cfg.a))):
        try:
            rule()
        except DomainError as exc:
            raise InputError(f"config field '{name}': {exc}") from exc
    if "decay_fit" in stages:
        xg = _log_grid(*FIT_X)
        # decay_envelope's windows on the synthesis lattice x0 = -L/2, dx = L/N
        window = envelope_window(BellEvaluator(cfg.a))
        x0, dx = -cfg.period / 2.0, cfg.period / cfg.samples
        try:
            window_indices(xg, window, GridSpec(x0, dx, cfg.samples))
        except InputError as exc:
            raise InputError(
                f"config field 'period': {exc}: each window (half-width {window / 2.0:.6g}) "
                f"of the decay fit's points, up to x = {xg[-1]:.6g}, must end by the last "
                f"lattice node L/2 - L/N = {x0 + dx * (cfg.samples - 1):.9g}; got {cfg.period}"
            ) from exc
        try:
            lambert_regressor(xg, cfg.sigma)
        except DomainError as exc:
            raise InputError(f"config field 'sigma': {exc} on the decay fit's points "
                             f"over [{FIT_X[0]:g}, {FIT_X[1]:g}]; got {cfg.sigma}") from exc


def _log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` points log-spaced over [lo, hi]."""
    return np.logspace(math.log10(lo), math.log10(hi), n)


# ---------------------------------------------------------------------------
# Deterministic artifact writing
# ---------------------------------------------------------------------------

_CSV_ROWS = 4096  # rows per format operation of write_csv


@contextlib.contextmanager
def _created(path: Path):
    """``path`` opened for writing with LF line endings.  An OSError while
    it is opened (a directory in its place, no such directory, no
    permission), written or closed (a full disk) is an InputError that
    names it."""
    try:
        with open(path, "w", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_csv(path: Path, header, columns) -> None:
    """One row per entry of the equal-length ``columns``: integer columns
    as integers, every other column at 17 significant digits.

    The columns' values are interleaved into one flat list, row by row, and
    each block of ``_CSV_ROWS`` rows is one ``%`` operation on the row
    format repeated: ``%.17g`` prints what ``{:.17g}`` does, -0, nan, inf
    and subnormals included."""
    columns = [np.asarray(c) for c in columns]
    width = len(columns)
    row_fmt = ",".join(
        "%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns
    ) + "\n"
    values = [None] * (width * len(columns[0]))
    for i, c in enumerate(columns):
        values[i::width] = c.tolist()
    step = width * _CSV_ROWS
    with _created(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(values), step):
            block = tuple(values[start:start + step])
            fh.write(row_fmt * (len(block) // width) % block)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_json(path: Path, obj) -> None:
    with _created(path) as fh:
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


LAMBERT_X = (1e-6, 1e8, 1000)  # lambert_table.csv: 1000 log-spaced x over [1e-6, 1e8]
ASSOC_K = (1e3, 1e12, 40)  # assoc_func.csv: 40 log-spaced k over [1e3, 1e12]


def stage_lambert_table(run: Run) -> list:
    xs = _log_grid(*LAMBERT_X)
    w = lambert_w0(xs)
    resid = np.abs(w * np.exp(w) - xs) / np.maximum(1.0, xs)
    lo = np.full_like(xs, np.nan)
    hi = np.full_like(xs, np.nan)
    mask = xs >= np.e  # the bounds are claimed from e on
    lx = np.log(xs[mask])
    llx = np.log(lx)  # Hoorfar & Hassani's sandwich on W:
    lo[mask], hi[mask] = lx - llx, lx - 0.5 * llx
    path = run.out / "lambert_table.csv"
    write_csv(path, ["x", "w", "residual", "lower_bound", "upper_bound"], [xs, w, resid, lo, hi])
    return [path]


def stage_assoc_func(run: Run) -> list:
    cfg = run.cfg
    params = SequenceParams(cfg.tau, cfg.sigma)
    reps = [assoc_t_exact(float(k), params) for k in _log_grid(*ASSOC_K)]
    path = run.out / "assoc_func.csv"
    cols = ["k", "t_exact", "argmax_p", "t_asym", "ratio"]
    write_csv(path, cols, [[getattr(rep, c) for rep in reps] for c in cols])
    return [path]


def stage_build_mollifier(run: Run) -> list:
    cfg, out = run.cfg, run.out
    build = build_mollifier(cfg.sigma, GridSpec.symmetric(1.5, 17))
    phi_path = out / "phi.csv"
    write_csv(phi_path, ["x", "phi"], [build.phi.x(), build.phi.values])
    audit = derivative_bound_audit(build)
    mass = build.phi.integral()
    prov = {
        "sigma": cfg.sigma,
        "thresholds": build.thresholds,
        "scales": build.scales,
        "trunc_index": build.trunc_index,
        "mass": mass,
        "evenness": build.evenness,
        "discarded_tail_mass": build.discarded_tail_mass,
        "bounds_table": [
            {"n": r.n, "measured": r.measured, "bound": r.bound, "ratio": r.ratio}
            for r in audit.rows
        ],
    }
    prov_path = out / "phi.provenance.json"
    write_json(prov_path, prov)
    run.report["mollifier"] = {
        "mass": mass,
        "evenness": build.evenness,
        "trunc_index": build.trunc_index,
        "audit_n_max": audit.n_max,
    }
    return [phi_path, prov_path]


def stage_build_wavelet(run: Run) -> list:
    cfg = run.cfg
    run.wb = build_wavelet(
        sigma=cfg.sigma,
        a=cfg.a,
        L=cfg.period,
        N=cfg.samples,
    )
    return []


PSI_HAT_POW = 16  # psi_hat.csv: 2^16 + 1 frequencies over +-(2(pi + a) + 1)
PSI_XMAX = 512.0  # psi.csv: the lattice samples with |x| <= 512


def stage_wavelet_artifacts(run: Run) -> list:
    wb, out = run.wb, run.out
    band = wb.ph.band[1] + 1.0
    freq = GridSpec(-band, 2.0 * band / 2 ** PSI_HAT_POW, 2 ** PSI_HAT_POW + 1)
    xi = freq.points()
    ph = wb.ph.psi_hat_at(xi)
    ph_path = out / "psi_hat.csv"
    write_csv(ph_path, ["xi", "re", "im"], [xi, ph.real, ph.imag])
    psi_path = out / "psi.csv"
    write_csv(psi_path, ["x", "psi"], wb.synthesis.grid.within(PSI_XMAX))
    man = {
        "sigma": wb.sigma,
        "a": wb.ph.a,
        "freq_grid": {"xi0": freq.x0, "dxi": freq.dx, "n": freq.n},
        "lattice": {"period": wb.L, "samples": wb.N, "dx": wb.L / wb.N},
        "support": [-wb.ph.band[1], wb.ph.band[1]],
        "l2_norm": wb.synthesis.l2_norm,
        "imag_max": wb.synthesis.imag_max,
        "periodization_diff": wb.synthesis.periodization_diff,
        "ramp_half_width": wb.ph.ramp_half_width,
        "psi_csv_xmax": PSI_XMAX,
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
    wb, out = run.wb, run.out
    gram = gram_matrix(wb.ph)
    gram_path = out / "gram.csv"
    write_csv(gram_path, ["m1", "n1", "m2", "n2", "re", "im"],
              [*gram.pairs, gram.values.real, gram.values.imag])
    dy = dyadic_sum_check(wb.ph)
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
    xg = _log_grid(*FIT_X)
    grid = wb.synthesis.grid
    table = decay_envelope(grid, xg, envelope_window(wb.ph))
    fit = fit_decay(table, cfg.sigma)
    env_path = run.out / "envelope.csv"
    write_csv(env_path, fit.comparator_columns, fit.comparator_table.T)
    # the n = 0 row is the fit itself: fit_decay has the same slope and r^2
    # gates as derivative_decay_check, on at least as many points
    rows = [DerivativeDecayRow(0, fit.h_fit, fit.intercept, fit.r_squared, grid.sup())]
    # psi's last reader is done: its front is kept, and no derivative
    # lattice is made beside its lattice
    del grid
    wb.release_psi()
    rows += wb.lattices(
        DERIV_ORDERS,
        lambda n, lattice: derivative_decay_check(lattice, n, xg, table.window, cfg.sigma),
    )
    run.report["decay_fit"] = {
        "h_fit": fit.h_fit,
        "h_stderr": fit.h_stderr,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "x_range": list(fit.x_range),
        "shape_checks": fit.shape_checks,
        "window": table.window,
        "dropped_points": table.dropped,
        "derivatives": [
            {"n": r.n, "h_fit": r.h_fit, "intercept": r.intercept,
             "r_squared": r.r_squared, "sup": r.sup}
            for r in rows
        ],
    }
    return [env_path]


def stage_mixed_audit(run: Run) -> list:
    run.wb.release_psi()  # a no-op after decay_fit
    rep = mixed_bound_audit(run.wb.fronts(range(MIXED_MAX + 1)), run.cfg.sigma)
    path = run.out / "mixed.csv"
    k, q = np.indices(rep.sup_table.shape)
    write_csv(path, ["k", "q", "sup"], [k.ravel(), q.ravel(), rep.sup_table.ravel()])
    run.report["mixed_audit"] = {
        "log_c": rep.log_c,
        "log_a": rep.log_a,
        "log_b": rep.log_b,
    }
    return [path]


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
    """One subcommand: its help line, its stages in run order, and the
    config fields it takes as ``--field-name`` flags of the field's type."""

    help: str
    stages: Tuple[str, ...]
    flags: Tuple[str, ...]


_WAVELET = ("build_wavelet", "wavelet_artifacts")
_LATTICE = ("sigma", "a", "samples", "period")

COMMANDS: Dict[str, Command] = {
    "lambert-table": Command(
        "table of W values, residuals, bounds",
        ("lambert_table",),
        (),
    ),
    "assoc-func": Command(
        "associated function exact/asymptotic table",
        ("assoc_func",),
        ("tau", "sigma"),
    ),
    "build-mollifier": Command(
        "convolution-cascade cutoff + provenance",
        ("build_mollifier",),
        ("sigma",),
    ),
    "build-wavelet": Command(
        "bell, transform, and lattice synthesis",
        _WAVELET,
        _LATTICE,
    ),
    "verify-onw": Command(
        "Gram matrix, dyadic sum, completeness",
        _WAVELET + ("verify_onw",),
        _LATTICE,
    ),
    "decay-fit": Command(
        "envelope extraction and Lambert-form regression",
        _WAVELET + ("decay_fit",),
        _LATTICE,
    ),
    "mixed-audit": Command(
        "moment-derivative bound feasibility",
        _WAVELET + ("mixed_audit",),
        _LATTICE,
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


def _rss_high_water_mb() -> float:
    """The process's resident-set high-water mark so far, in MiB: ``VmHWM``
    of /proc/self/status where there is one, else ``ru_maxrss`` (KiB on
    Linux, bytes on macOS).  Linux carries ``ru_maxrss`` from the forking
    process across exec, so it would count the memory of the process that
    started the run; VmHWM is this process's own."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2.0 ** 20 if sys.platform == "darwin" else 1024.0)


def run_pipeline(command: str, cfg: RunConfig) -> dict:
    """Execute the stages of one subcommand; returns the manifest.

    A stage that raises ends the run: the report and the manifest record
    the stage (status "fail" for a VerificationError, "error" with the
    exception's class and message for any other), the manifest the exit
    code ``EXITS`` gives it (0 on pass), and the exception propagates.
    A ``report.json`` that cannot be created ends a run that no stage
    failed the same way: the manifest records status "error", the file
    under ``failing``'s "artifact" and exit code 2.
    Each stage that completes gets its wall time (``timings``), its CPU
    time (``cpu_s``, all threads) and the process's resident-set
    high-water mark after it (``rss_high_water_mb``: the peak of the whole
    process so far, not of the stage).
    """
    stages = COMMANDS[command].stages
    _validate(cfg, stages)
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, a name too long, no permission
        raise InputError(f"config field 'out_dir': cannot make the output "
                         f"directory: {exc}; got {cfg.out_dir}") from exc
    run = Run(cfg, out)
    artifacts: list = []
    timings: dict = {}
    cpu_s: dict = {}
    rss_high_water_mb: dict = {}
    failing = raised = None
    status = "pass"
    for name in stages:
        t0, c0 = time.perf_counter(), time.process_time()
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
        cpu_s[name] = time.process_time() - c0
        rss_high_water_mb[name] = _rss_high_water_mb()

    report = {
        "command": command,
        "assertions": run.report,
        "status": status,
        "failing": failing,
        "versions": {
            "lambertwave": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    if "build_wavelet" in stages:  # the lattice this run built
        report["grids"] = {"period": cfg.period, "samples": cfg.samples}
    report_path = out / "report.json"
    try:
        write_json(report_path, report)
        artifacts.append(report_path)
    except InputError as exc:
        if raised is None:  # else a stage's failure is the run's
            failing = {"artifact": report_path.name, "exception": "InputError", "message": str(exc)}
            status, raised = "error", exc

    manifest = {
        "command": command,
        "config": dataclasses.asdict(cfg),
        "artifacts": {p.name: _sha256(p) for p in artifacts},
        "timings": timings,
        "cpu_s": cpu_s,
        "rss_high_water_mb": rss_high_water_mb,
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


_TYPE_NAMES = {"int": "an integer", "float": "a finite number", "str": "a string"}


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
    if kind == "str" and isinstance(val, str):
        return val
    raise InputError(f"config field '{name}': expected {_TYPE_NAMES[kind]}; got {val!r}")


_ARG_TYPES = {"int": int, "float": float, "str": str}


def _add_flag(p: argparse.ArgumentParser, name: str, **kw) -> None:
    """``--field-name`` sets config field ``name``, parsed as its type."""
    p.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None,
                   type=_ARG_TYPES[_FIELD_TYPES[name]], **kw)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lambertwave",
        description="Band-limited wavelets with Lambert-form decay: build and certify.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        # never abbreviated: a removed --out must not pass for --out-dir
        p = sub.add_parser(command, help=spec.help, allow_abbrev=False)
        for name in spec.flags:
            _add_flag(p, name)
        p.add_argument("--config", help="JSON file of config key/value pairs")
        _add_flag(p, "out_dir", help="output directory")
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
