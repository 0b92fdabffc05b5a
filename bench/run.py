"""braidseg benchmark: one workload per process, timed end to end or traced.

    python3 bench/run.py --workload train|infer|gradcheck --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --workload all        # every workload, one process each

A run sets its workload up SETUP_REPEATS times in one directory (the first
set-up creates the files, the others overwrite them, which times far more
steadily than creating new ones), then runs whole rounds of the workload
until --seconds have passed, at least one, sets it up SETUP_REPEATS times
more and checks the rounds' outputs. setup_s is the median of these set-up
times, each averaged over at least SETUP_SAMPLE_S: taken at two moments
half a minute apart, it leans less on the speed the shared host happens to
give at one of them. items_per_s is read at the fastest fiftieth of the
per-step times of the rounds (see rate()). With --trace 1 the same time is
split: untraced rounds first, then the tracer is installed and the set-up
and rounds run again; the traced rounds give the per-layer metrics and
their cost against the untraced ones gives the trace overhead. The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json (end_to_end untraced, per_layer
traced).

The program is imported from src/ next to this directory and nowhere
else; without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 6          # set-ups before the rounds, and as many after
SETUP_SAMPLE_S = 0.25      # a set-up time is averaged over at least this long
FAST_QUANTILE = 50         # items_per_s is read at the fastest 1/50 of the steps
WORKLOADS = ("train", "infer", "gradcheck")


def cap_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= nproc):
            os.environ[var] = str(nproc)
    return nproc, int(os.environ["OPENBLAS_NUM_THREADS"])


def import_program():
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    try:
        import braidseg
    except ImportError as e:
        sys.exit(f"bench: cannot import braidseg from {SRC}: {e}")
    if not Path(braidseg.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: braidseg resolved to {braidseg.__file__}, outside {SRC}")


def machine(nproc, threads):
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": nproc, "blas_threads": threads, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(wl, budget, tracer=None):
    """Whole rounds until budget seconds have passed, at least one."""
    rounds, t0 = [], time.perf_counter()
    while not rounds or time.perf_counter() - t0 < budget:
        if tracer is not None:
            tracer.discard_op()
        rounds.append(wl.round(tracer))
    return rounds


def rate(rounds):
    """Items per second at the fastest fiftieth of the run's per-step times.

    Other tenants of a shared host slow this CPU-bound code by up to a
    half for seconds at a time, and only slow it; a low quantile of many
    short steps drawn from the whole run reads the code's own speed, where
    the wall time of a call reads how long the slow spells inside it were.
    """
    steps = sorted(s for r in rounds for s in r.item_seconds)
    return 1.0 / steps[len(steps) // FAST_QUANTILE]


def run_workload(args):
    nproc, threads = cap_blas_threads()
    import_program()
    import checks
    import tracing
    import workloads

    end_to_end, per_layer = declared_metrics()
    facts = machine(nproc, threads)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in facts.items()))
    errs = checks.self_test()
    work = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(work))
        setup_s = []

        def set_up():
            # set-ups are deterministic in the seed: a repeat rewrites the
            # same files and rebuilds the same inputs and model. A set-up
            # shorter than SETUP_SAMPLE_S is repeated back to back and
            # averaged: one 20 ms set-up falls wholly into a fast or a slow
            # spell of the host, which makes the median jump between the two.
            for _ in range(SETUP_REPEATS):
                n, t0 = 0, time.perf_counter()
                while not n or time.perf_counter() - t0 < SETUP_SAMPLE_S:
                    wl.setup(str(work / "setup"))
                    n += 1
                setup_s.append((time.perf_counter() - t0) / n)

        set_up()
        if hasattr(wl, "prepare"):
            wl.prepare()
        budget = args.seconds / 2 if args.trace else args.seconds
        rounds = measure(wl, budget)
        # the high-water mark before the checks, whose batch-8 forward and
        # extra models are not the workload's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        set_up()
        for i, r in enumerate(rounds):
            print(f"# round {i}: {r.items} items in {r.seconds:.3f} s "
                  f"({r.items / r.seconds:.4g}/s over the whole call), {len(r.item_seconds)} steps")
        found, counts = wl.check(rounds)
        errs += found
        if any(wl.fingerprint(r) != wl.fingerprint(rounds[0]) for r in rounds[1:]):
            errs.append("rounds with the same seed gave different outputs")

        if not args.trace:
            metrics = {"setup_s": statistics.median(setup_s),
                       "peak_rss_mb": peak_rss_mb,
                       "items_per_s": rate(rounds)}
            units = end_to_end
        else:
            tracer = tracing.Tracer().install()
            try:
                wl.setup(str(work / "traced"))
                if hasattr(wl, "prepare"):
                    wl.prepare()
                traced = measure(wl, budget, tracer)
                extras = wl.traced_extras(tracer, traced) if hasattr(wl, "traced_extras") else {}
            finally:
                tracer.uninstall()
            if any(wl.fingerprint(r) != wl.fingerprint(rounds[0]) for r in traced):
                errs.append("traced rounds gave other outputs than untraced ones")
            metrics = tracing.summarize(tracer)
            metrics.update(counts)
            metrics.update(extras)
            metrics["trace.overhead_pct"] = (rate(rounds) / rate(traced) - 1.0) * 100.0
            predict = [ms for r in rounds for ms in r.out.get("predict_ms", [])]
            if predict:
                metrics["infer.predict_ms_p50"] = statistics.median(predict)
                metrics["infer.predict_ms_p90"] = statistics.quantiles(predict, n=10)[8]
            units = per_layer
            rounds = rounds + traced
            OUT.mkdir(exist_ok=True)
            with open(OUT / f"trace-{args.workload}-s{args.seed}.json", "w") as f:
                json.dump({"machine": facts, "missing": tracer.missing,
                           "operations": len(tracer.done), "metrics": metrics}, f, indent=1)
            if tracer.missing:
                print(f"# trace: missing targets {tracer.missing}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unknown = sorted(set(units) - set(metrics))
    if unknown:
        errs.append(f"no value for declared metrics {unknown}")
    for e in errs:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    for name, unit in units.items():
        print(f"# {name:34s} {metrics.get(name, float('nan')):14.6g} {unit}")
    result = {"correct": not errs,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": {n: {"value": float(metrics.get(n, 0.0)), "unit": u}
                          for n, u in units.items()}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one after the other."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"   correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
