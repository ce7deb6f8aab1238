"""Benchmark runner for lambertwave.

    python3 perfbench/run.py --workload all_default --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  The runner makes the workload's inputs from the seed, then runs
rounds, one fresh child process at a time, until ``--seconds`` have passed;
each child sets up, runs every operation of the round once, and checks the
outputs.  With ``--trace 0`` it first starts a few children that only set
up, and reports the end-to-end metrics (medians over rounds; ``setup_s``
over those children and the rounds); with ``--trace 1`` rounds alternate
untraced and traced, and it reports the per-layer metrics of the traced
rounds and the tracing overhead.  Metric names and units are those of
BENCHMARK.json.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
RUN_LIMIT_S = 170.0
# set-up-only children per untraced run, on top of one set-up per round
SETUP_PROBES = 3

# param_sweep lattice: 8x fewer samples than the default 2^22, half the period
SWEEP_SAMPLES = 2 ** 19
SWEEP_PERIOD = 2 ** 17
# Every round has the deep cascade at sigma = 1.5 (202 convolutions); the
# other two sigma are drawn from strata that skip (1.5, 1.8), where the
# depth falls from 202 to about 40, so that a round's cost hardly depends
# on the seed.  sigma just above 1.5 is not drawn: the mollifier's
# derivative audit fails there at some values (1.5012, 1.5014, 1.5036).
SIGMA_DEEP = 1.5
SIGMA_STRATA = ((1.8, 2.4), (2.4, 3.0))
# a >= 0.8: on this lattice the periodization certificate fails (exit 3) at
# the default a = pi/6, with a residual of 1.27e-13 against its 1e-13
# tolerance at sigma = 2, while a = 0.5 and 0.52 pass
A_RANGE = (0.8, 1.0)
# point_eval: |x| ranges (main lobe, mid range, tail) and points per range
POINT_RANGES = ((0.0, 4.0), (4.0, 512.0), (512.0, 3.0e4))
POINTS_PER_RANGE = 5
LATTICE_DX = 2.0 ** 18 / 2 ** 22  # the default lattice spacing


def _cli_config(sigma=2.0, a=math.pi / 6.0, extra=()):
    return {"sigma": sigma, "a": a, "argv": ["all", *extra]}


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs: a function of the seed alone."""
    rng = random.Random(seed)
    if workload == "all_default":
        return {"configs": [_cli_config()]}
    if workload == "param_sweep":
        configs = []
        for sigma in (SIGMA_DEEP, *(round(rng.uniform(*s), 4) for s in SIGMA_STRATA)):
            a = round(rng.uniform(*A_RANGE), 4)
            configs.append(_cli_config(sigma, a, (
                "--sigma", repr(sigma), "--a", repr(a),
                "--samples", str(SWEEP_SAMPLES), "--period", str(SWEEP_PERIOD),
            )))
        return {"configs": configs}
    if workload == "point_eval":
        points = []
        for lo, hi in POINT_RANGES:
            for _ in range(POINTS_PER_RANGE):
                r = rng.uniform(lo, hi) if lo == 0.0 else math.exp(
                    rng.uniform(math.log(lo), math.log(hi)))
                x = rng.choice((-1.0, 1.0)) * r
                points.append(round(x / LATTICE_DX) * LATTICE_DX)
        return {"points": points}
    raise ValueError(workload)


WORKLOADS = ("all_default", "param_sweep", "point_eval")


def run_child(root: Path, workload: str, inputs: dict, traced: bool,
              tag: str, timeout: float, setup_only: bool = False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    spec = {
        "workload": workload,
        "inputs": inputs,
        "traced": traced,
        "setup_only": setup_only,
        "out_dir": str(OUT / f"artifacts-{tag}"),
        "trace_path": str(OUT / f"trace-{tag}.jsonl"),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            env=env, cwd=root, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"round {tag} did not finish within {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(spec["out_dir"], ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"round {tag} exited with code {proc.returncode}", file=sys.stderr)
        return None
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["traced"] = traced
    return res


def summarize(bench: dict, rounds: list, setups: list, trace: bool) -> dict:
    """The metrics BENCHMARK.json declares.  Untraced: medians over rounds,
    setup_s over the set-up children and the rounds.  Traced: per-layer
    times are medians over the traced rounds, every other per-layer figure
    must repeat exactly, and trace.overhead_ratio is the traced over the
    untraced median run_s."""
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    metrics = {}
    for m in bench["per_layer" if trace else "end_to_end"]:
        name = m["name"]
        if name == "setup_s":
            value = statistics.median(setups + [r[name] for r in rounds])
        elif not trace:
            value = statistics.median(r[name] for r in rounds)
        elif name == "trace.overhead_ratio":
            value = (statistics.median(r["run_s"] for r in traced)
                     / statistics.median(r["run_s"] for r in untraced))
        elif m["unit"] == "s":
            value = statistics.median(r["layers"][name] for r in traced)
        else:
            seen = [r["layers"][name] for r in traced]
            if len(set(seen)) != 1:
                raise RuntimeError(f"{name} differs between traced rounds: {seen}")
            value = seen[0]
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    package = root / "src" / "lambertwave"
    if not (package / "__init__.py").is_file():
        print(f"error: no lambertwave sources under {root / 'src'}; run from "
              "the root of a lambertwave checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(package), quiet=1)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    start = time.perf_counter()
    inputs = make_inputs(args.workload, args.seed)
    trace = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    setups = []
    for i in range(0 if trace else SETUP_PROBES):
        res = run_child(root, args.workload, inputs, False, f"{tag}-s{i}",
                        RUN_LIMIT_S - (time.perf_counter() - start), setup_only=True)
        if res is None:
            return 1
        setups.append(res["setup_s"])
    rounds = []
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (not trace or len(rounds) >= 2):
            break
        res = run_child(root, args.workload, inputs, trace and len(rounds) % 2 == 1,
                        f"{tag}-r{len(rounds)}", RUN_LIMIT_S - elapsed)
        if res is None:
            return 1
        rounds.append(res)

    errors = [e for r in rounds for e in r["errors"]]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    metrics = summarize(bench, rounds, setups, trace)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:12s} rounds {len(rounds)}, attempted {attempted}, "
          f"failed {failed}, correct {not errors}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
