"""Run one workload twice over several seeds and compare the two sets.

    python3 perfbench/spread.py --workload collect [--seeds 1-10]

Untraced runs of BENCHMARK.json's `run_seconds` are made one after another, the two sets interleaved
(seed 1 of set A, seed 1 of set B, seed 2 of set A, ...). For each
end-to-end metric it prints, per set, the median of the runs and the
distance between their first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of that median; then
how much worse set B's median is than set A's, as a share of A's. Both
figures are checked against the metric's bound in BENCHMARK.json
(the spread of `setup_s` excepted), and so is the share of failed
operations, which must be the same in both sets. The runs' records go
to `.perfbench/spread-<workload>.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = ("A", "B")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("nan")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])

    runs = {s: [] for s in SETS}
    for seed in args.seeds:
        for s in SETS:
            result = run_once(args.workload, seed, seconds)
            runs[s].append(result)
            print(f"set {s} seed {seed}: correct {result['correct']}, {result['failed']}/"
                  f"{result['attempted']} failed", flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", f"spread-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)

    ok = all(r["correct"] for s in SETS for r in runs[s])
    shares = [sum(r["failed"] for r in runs[s]) / sum(r["attempted"] for r in runs[s])
              for s in SETS]
    ok &= shares[0] == shares[1]
    print(f"all correct: {ok}; failed share per set: {shares}")
    print(f"{'metric':18s} {'bound':>5s}  " + "  ".join(
        f"{'median ' + s:>12s} {'IQR ' + s:>7s}" for s in SETS) + f"  {'B worse':>8s}")
    for name, m in metrics.items():
        cells, iqrs = [], []
        for s in SETS:
            med, iqr = spread([r["metrics"][name]["value"] for r in runs[s]])
            cells.append((med, iqr))
            iqrs.append(iqr)
        gap = worse_by(cells[0][0], cells[1][0], m["better"])
        within = gap <= m["bound"] and (name == "setup_s" or max(iqrs) <= m["bound"])
        ok &= within
        print(f"{name:18s} {m['bound']:5.2f}  " + "  ".join(
            f"{med:12.6g} {iqr:7.4f}" for med, iqr in cells)
            + f"  {gap:+8.4f}" + ("" if within else "  OUT OF BOUND"))
    print("within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
