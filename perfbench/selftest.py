"""Show that every output check passes on real artifacts and fails on a
deliberately perturbed copy.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Makes one small `lambertwave all` run
(2^19 samples, period 2^17) and one small wavelet with three point
evaluations, then perturbs one artifact at a time, each by far less than
any tolerance a user would notice, and requires the matching check to fail.
Last, it runs one round through ``child.py`` whose CLI call exits 2, and
requires the round to count it as failed and as a check error.  Exits 1 if
a check misses its perturbation or rejects the real output.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402

SIGMA, A = 2.0, 0.9
L, N = 2.0 ** 17, 2 ** 19


def _edit_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    tab = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    edit(tab)
    body = [",".join(format(v, ".17g") for v in row) for row in tab]
    path.write_text("\n".join([lines[0], *body]) + "\n")


def _near(col, value):
    return int(np.argmin(np.abs(col - value)))


def _perturbations():
    """(name, artifact, edit, check) with check(out_dir) -> error list."""
    cli_check = lambda d: checks.check_cli_run(d, SIGMA, A, 0)  # noqa: E731

    def scale_peak(t):
        t[_near(t[:, 0], 0.5), 1] *= 1.0 + 1e-7

    def add_translate(t):  # psi + eps psi(. - 1): no longer orthogonal
        step = int(round(1.0 / (t[1, 0] - t[0, 0])))
        t[step:, 1] += 1e-8 * t[:-step, 1]

    def rotate_phase(t):
        z = (t[:, 1] + 1j * t[:, 2]) * np.exp(1e-10j)
        t[:, 1], t[:, 2] = z.real, z.imag

    def lift_ramp(t):
        ramp = (t[:, 0] >= math.pi - A) & (t[:, 0] <= math.pi + A)
        t[ramp, 1:] *= 1.0 + 1e-9

    def leak_band(t):  # in phase, so only the support check sees it
        i = _near(t[:, 0], math.pi - A - 0.2)
        t[i, 1:] = 1e-9 * np.cos(t[i, 0] / 2.0), 1e-9 * np.sin(t[i, 0] / 2.0)

    def bump_w(t):
        t[500, 1] *= 1.0 + 1e-12

    def bump_t_exact(t):
        t[10, 1] += 1e-9 * t[10, 1]

    def bump_argmax(t):
        t[10, 2] += 1.0

    def bump_t_asym(t):
        t[10, 3] *= 1.0 + 1e-10

    def lower_sup(t):
        t[(t[:, 0] == 3) & (t[:, 1] == 0), 2] *= 0.999

    def raise_sup0(t):
        t[(t[:, 0] == 0) & (t[:, 1] == 0), 2] *= 1.0 + 1e-10

    def fail_status(d):
        rep = json.loads((d / "report.json").read_text())
        rep["status"] = "fail"
        (d / "report.json").write_text(json.dumps(rep))

    return [
        ("norm: psi scaled by 1 + 1e-7 at its peak", "psi.csv", scale_peak, cli_check),
        ("orthogonality: psi + 1e-8 psi(. - 1)", "psi.csv", add_translate, cli_check),
        ("phase: psi_hat rotated by 1e-10 rad", "psi_hat.csv", rotate_phase, cli_check),
        ("partition: b scaled by 1 + 1e-9 on [pi - a, pi + a]", "psi_hat.csv", lift_ramp, cli_check),
        ("band: 1e-9 below pi - a", "psi_hat.csv", leak_band, cli_check),
        ("lambert: one W value off by 1e-12 relative", "lambert_table.csv", bump_w, cli_check),
        ("assoc: t_exact off by 1e-9 relative", "assoc_func.csv", bump_t_exact, cli_check),
        ("assoc: argmax_p off by one", "assoc_func.csv", bump_argmax, cli_check),
        ("assoc: t_asym off by 1e-10 relative", "assoc_func.csv", bump_t_asym, cli_check),
        ("moments: sup(3, 0) lowered by 0.1%", "mixed.csv", lower_sup, cli_check),
        ("moments: sup(0, 0) raised by 1e-10 relative", "mixed.csv", raise_sup0, cli_check),
        ("status: report.json says fail", None, fail_status, cli_check),
        ("exit status: code 3", None, None, lambda d: checks.check_cli_run(d, SIGMA, A, 3)),
    ]


def main() -> int:
    import lambertwave.cli as cli
    from lambertwave.bell import build_wavelet, eval_psi_point

    work = HERE / "out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    real = work / "real"
    rc = cli.main(["all", "--sigma", str(SIGMA), "--a", str(A), "--samples", str(N),
                   "--period", str(L), "--out-dir", str(real)])
    ok = True
    base = checks.check_cli_run(real, SIGMA, A, rc)
    print(f"{'rejects real artifacts' if base else 'passes'}: unperturbed `all` run")
    ok &= not base

    wb = build_wavelet(sigma=SIGMA, a=A, L=L, N=N)
    dx = L / N
    xs = [0.5, -37.0 * dx * 16, 2000.0]
    quad = [eval_psi_point(wb.ph, x) for x in xs]
    base = checks.check_points(xs, quad, wb.synthesis.grid)
    print(f"{'rejects real values' if base else 'passes'}: unperturbed point evaluations")
    ok &= not base
    missed = not checks.check_points(xs, [quad[0], quad[1] + 1e-11, quad[2]],
                                     wb.synthesis.grid)
    print(f"{'MISSED' if missed else 'caught'}: point: quadrature off by 1e-11")
    ok &= not missed

    for name, artifact, edit, check in _perturbations():
        copy = work / "perturbed"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(real, copy)
        if artifact is not None:
            _edit_csv(copy / artifact, edit)
        elif edit is not None:
            edit(copy)
        errors = check(copy)
        print(f"{'caught' if errors else 'MISSED'}: {name}"
              + (f"  ->  {errors[0]}" if errors else ""))
        ok &= bool(errors)

    # a round whose CLI call fails (a outside (0, pi/3): exit 2), as run.py runs it
    spec = {"workload": "param_sweep", "traced": False, "out_dir": str(work / "round"),
            "trace_path": str(work / "trace.jsonl"),
            "inputs": {"configs": [{"sigma": SIGMA, "a": 2.0,
                                    "argv": ["all", "--a", "2.0"]}]}}
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    proc = subprocess.run([sys.executable, str(HERE / "child.py")], env=env,
                          input=json.dumps(spec), capture_output=True, text=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    missed = not (res["failed"] == 1 and res["errors"])
    print(f"{'MISSED' if missed else 'caught'}: round: CLI call exits 2"
          + ("" if missed else f"  ->  {res['errors'][0]}"))
    ok &= not missed
    shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
