"""One benchmark round in a fresh process.

Reads a JSON spec on stdin, imports lambertwave (and, for ``point_eval``,
builds the default wavelet): that is set-up.  Then runs the round's
operations, timed, checks their outputs, and prints one JSON line.  A
``setup_only`` spec stops after set-up and reports only its time.  Every
failed operation is also a check error, so a round with a failure is never
correct.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def main() -> int:
    spec = json.loads(sys.stdin.read())
    inputs = spec["inputs"]
    out_dir = Path(spec["out_dir"])

    import lambertwave.cli  # noqa: F401  (set-up: package import)

    tracer = None
    if spec["traced"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cli = sys.modules["lambertwave.cli"]
    bell = sys.modules["lambertwave.bell"]
    wb = bell.build_wavelet() if spec["workload"] == "point_eval" else None
    setup_s = time.perf_counter() - _T0
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return 0

    attempted = failed = 0
    outcomes = []
    errors = []
    cpu0, _ = _usage()
    w0 = time.perf_counter()
    if wb is None:
        for i, cfg in enumerate(inputs["configs"]):
            out = out_dir / f"cfg{i}"
            attempted += 1
            try:
                rc = cli.main(cfg["argv"] + ["--out-dir", str(out)])
            except Exception as exc:  # a traceback is a failed operation
                print(f"config {cfg['argv']}: {exc!r}", file=sys.stderr)
                rc = None
            failed += rc != 0
            outcomes.append((cfg, out, rc))
    else:
        for x in inputs["points"]:
            attempted += 1
            try:
                outcomes.append((x, bell.eval_psi_point(wb.ph, x)))
            except Exception as exc:
                print(f"point {x}: {exc!r}", file=sys.stderr)
                failed += 1
                errors.append(f"point {x}: {exc!r}")
    run_s = time.perf_counter() - w0
    cpu1, peak_rss_mb = _usage()

    import checks

    if wb is None:
        for cfg, out, rc in outcomes:
            if rc != 0:
                errors.append(f"config {cfg['argv']}: exit code {rc}")
                continue
            try:
                errors += checks.check_cli_run(out, cfg["sigma"], cfg["a"], rc)
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed artifact
                errors.append(f"config {cfg['argv']}: {exc!r}")
    elif outcomes:
        xs, vals = zip(*outcomes)
        errors += checks.check_points(xs, vals, wb.synthesis.grid)
    shutil.rmtree(out_dir, ignore_errors=True)

    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["trace.spans"] = len(tracer.spans)
        tracer.dump(spec["trace_path"])
    print(json.dumps({
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
