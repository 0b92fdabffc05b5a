"""Repeat mode: run workloads several times, one seed each, and summarise.

    python3 bench/repeat.py --workload train,infer,gradcheck --runs 10 \
        [--seed0 0] [--seconds 15] [--trace 0]

Runs bench/run.py once per seed (seed0, seed0+1, ...), one run at a time,
and prints for every metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
in BENCHMARK.json. The bounds there are set from these figures: every
spread should stay below a third of its bound. The whole summary is also
written to .bench_out/repeat-<workload>-s<seed0>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def repeat(workload, runs, seed0, seconds, trace, bounds):
    results = []
    for seed in range(seed0, seed0 + runs):
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.stderr.write(proc.stderr)
        results.append(result)
        print(f"  {workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    names = list(results[0]["metrics"])
    summary = {"workload": workload, "runs": runs, "seed0": seed0, "seconds": seconds,
               "trace": trace, "all_correct": all(r["correct"] for r in results),
               "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
               "metrics": {n: summarise([r["metrics"][n]["value"] for r in results])
                           for n in names}}
    print(f"{workload}: all correct={summary['all_correct']} "
          f"failed share={summary['failed_share']}")
    print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for n, s in summary["metrics"].items():
        bound = bounds.get(n)
        flag = "" if bound is None else ("ok" if s["spread"] < bound / 3 else "WIDE")
        print(f"  {n:34s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:8.4f} {'' if bound is None else bound:>6} {flag}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"repeat-{workload}-s{seed0}-t{trace}.json", "w") as f:
        json.dump(summary, f, indent=1)
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="comma-separated workload names")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    for workload in args.workload.split(","):
        repeat(workload, args.runs, args.seed0, seconds, args.trace, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
