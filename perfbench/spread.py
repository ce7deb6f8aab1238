"""Run every workload under several seeds and print the spread of each
end-to-end metric: median, quartiles, and the interquartile distance as a
share of the median, against the bound in BENCHMARK.json.

    python3 perfbench/spread.py                    # seeds 1..10
    python3 perfbench/spread.py --first-seed 11    # seeds 11..20

Run from the root of a checkout.  Runs go one at a time; the summary is also
written to perfbench/out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.seeds < 2:
        ap.error("--seeds must be at least 2 to give quartiles")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = spread < bound / 3.0
            ok &= steady
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": values}
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.2%}  bound {bound:.0%}"
                  f"{'' if steady else '  SPREAD ABOVE BOUND/3'}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        ok &= correct
        print(f"  attempted {attempted}, failed {failed}, correct {correct}", flush=True)
        summary[workload] = {"metrics": rows, "attempted": attempted,
                             "failed": failed, "correct": correct}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "spread.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
