"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload collect|pretrain|deploy \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from
`src/`. BLAS runs single-threaded. Set-up runs several times (the
workload's `setup_repeats`), each after emptying the package's memo
caches, and `setup_s` is the median. The timed phase then runs whole
rounds until S seconds of rounds have passed, the rounds hold enough
steps for a p90 and they make whole cycles of the workload's inputs.
Each round's outputs are checked between rounds, outside the timed
windows.

With `--trace 0` the last line of standard output holds the end-to-end
metrics. With `--trace 1` the package's public callables are wrapped
in spans for the timed rounds only, the last line holds the per-layer
metrics, and the spans go to `.perfbench/trace-<workload>-<seed>.json`.
Either way a result record goes to `.perfbench/`.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
TAIL = 90

sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    from tacforce import dataset
except ImportError as exc:
    sys.stderr.write(f"perfbench: cannot import the tacforce package from src/: {exc}\n")
    sys.exit(2)
if not os.path.abspath(dataset.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.stderr.write(f"perfbench: tacforce came from {dataset.__file__}, not from src/\n")
    sys.exit(2)

import layers
import stats
import tracing
from workloads import WORKLOADS


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def clear_package_caches():
    """Empty the memo caches of the package's functions (the rendered
    sensor backgrounds), so that every set-up does the work a fresh
    process does."""
    for name, mod in list(sys.modules.items()):
        if name == "tacforce" or name.startswith("tacforce."):
            for fn in list(vars(mod).values()):
                if callable(getattr(fn, "cache_clear", None)):
                    fn.cache_clear()


def measure(workload, seconds, tracer):
    """Set up, then run and check rounds; returns the run's record."""
    setups = []
    for _ in range(workload.setup_repeats):
        clear_package_caches()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)

    rounds, windows, problems = [], [], []
    steps = []
    need = stats.min_samples(TAIL)
    while (sum(r.seconds for r in rounds) < seconds or len(steps) < need
           or len(rounds) % workload.cycle):
        patcher = layers.install(tracer) if tracer else None
        try:
            t0 = time.perf_counter()
            rnd = workload.round(len(rounds))
            t1 = time.perf_counter()
        finally:
            if patcher:
                patcher.restore()
        rnd.seconds = t1 - t0
        windows.append((t0, t1))
        rounds.append(rnd)
        steps += rnd.steps
        problems += workload.check(len(rounds) - 1)
    return {"setups": setups, "rounds": rounds, "windows": windows,
            "problems": problems, "steps": steps}


def end_to_end(workload, run):
    """The untraced run's metrics. Times of rounds and steps are means over
    the run: the machine's speed shifts between spells a few seconds long, a
    mean moves in proportion to the time spent in each, and a median jumps
    from one spell's speed to the other's."""
    rounds = run["rounds"]
    timed = sum(r.seconds for r in rounds)
    steps_ms = [1e3 * s for s in run["steps"]]
    values = {
        "setup_s": (stats.median(run["setups"]), "s"),
        "wall_s": (timed / len(rounds), "s"),
        "samples_per_s": (sum(r.samples for r in rounds) / timed, "samples/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "step_ms_mean": (sum(steps_ms) / len(steps_ms), "ms"),
        "step_ms_p90": (stats.percentile(steps_ms, TAIL), "ms"),
        "force_error_pct": (workload.force_error_pct(), "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(tracer, run):
    values = layers.derive(tracer.spans, len(run["rounds"]), dataset.worker_count())
    units = {name: unit for name, unit, _ in layers.METRICS}
    return {name: {"value": values[name], "unit": units[name]} for name, _, _ in layers.METRICS}


def main():
    args = parse_args()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        run = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = run["rounds"]
    metrics = per_layer(tracer, run) if tracer else end_to_end(workload, run)
    result = {
        "correct": not run["problems"],
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  problems=run["problems"], rounds=len(rounds), steps=len(run["steps"]),
                  setup_s=run["setups"], round_s=[r.seconds for r in rounds],
                  dataset_workers=dataset.worker_count())
    stem = f"{args.workload}-{args.seed}"
    if tracer:
        record["span_coverage"] = tracing.coverage(tracer.spans, run["windows"])
        spans = [[s.id, s.parent, s.name, s.thread, s.start, s.end] for s in tracer.spans]
        with open(os.path.join(OUT_DIR, f"trace-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "windows": run["windows"],
                       "summary": tracing.summary(tracer.spans),
                       "span_coverage": record["span_coverage"],
                       "spans": spans}, fh)
    with open(os.path.join(OUT_DIR, f"result-{stem}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for p in run["problems"]:
        sys.stderr.write(f"check failed: {p}\n")
    sys.stderr.write(f"{args.workload}: {len(rounds)} rounds, {len(run['steps'])} steps, "
                     f"round s {[round(r.seconds, 3) for r in rounds]}"
                     + (f", span coverage {record['span_coverage']:.3f}" if tracer else "")
                     + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
