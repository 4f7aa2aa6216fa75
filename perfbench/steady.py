#!/usr/bin/env python3
"""Steadiness report: runs every workload N times, seeds 1..N, and prints
each end-to-end metric's median, quartiles, interquartile spread and
(max-min)/median, flagging any metric whose spread exceeds its bound in
BENCHMARK.json (or a third of it, the margin to aim for).

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 10 --save .bench_build/set1.json
    python3 perfbench/steady.py --runs 10 --compare .bench_build/set1.json
    python3 perfbench/steady.py --runs 0 --trace-runs 3 --compare .bench_build/set1.json

--compare checks that this set's medians are no worse than a saved set's by
more than each bound. --trace-runs adds traced runs: their per-layer medians,
and the tracing overhead (traced run's own end-to-end figures against the
untraced medians of this set, or of the --compare set when --runs is 0).
Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    """Runs one benchmark; returns (result dict or None, lines before it)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return None, []
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        result["correct"] = False
    return result, [json.loads(l) for l in lines[:-1] if l.startswith("{")]


def spread(values):
    """(median, q1, q3, iqr/median, (max-min)/median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(med) if med else 1.0
    return med, q1, q3, (q3 - q1) / scale, (max(values) - min(values)) / scale


def worse_by(new, old, better):
    """Relative amount by which `new` is worse than `old`."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save", default="")
    parser.add_argument("--compare", default="")
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    baseline = {}
    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)

    values = {}  # workload -> metric -> [values]
    flagged = 0
    for w in workloads:
        per_metric = values.setdefault(w, {})
        for i in range(args.runs):
            seed = 1 + i
            result, _ = run_once(w, seed, seconds, 0)
            if result is None or not result["correct"]:
                print("%s seed %d: FAILED (no correct result)" % (w, seed))
                flagged += 1
                continue
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        if not per_metric:
            continue
        print("\n== %s: %d runs, %d s each ==" % (w, args.runs, seconds))
        print("%-16s %14s %14s %14s %8s %9s %6s  %s" %
              ("metric", "median", "q1", "q3", "iqr/med", "range/med", "bound",
               "flag"))
        for name, vals in sorted(per_metric.items()):
            med, q1, q3, iqr, rng = spread(vals)
            bound = metrics[name]["bound"]
            flag = ""
            if iqr > bound:
                flag = "SPREAD>BOUND"
            elif iqr > bound / 3:
                flag = "spread>bound/3"
            old = baseline.get(w, {}).get(name)
            if old:
                drift = worse_by(med, statistics.median(old),
                                 metrics[name]["better"])
                if drift > bound:
                    flag += " WORSE-THAN-BASELINE(%.1f%%)" % (100 * drift)
            flagged += "BOUND" in flag or "BASELINE" in flag
            print("%-16s %14.4f %14.4f %14.4f %7.1f%% %8.1f%% %5.0f%%  %s" %
                  (name, med, q1, q3, 100 * iqr, 100 * rng, 100 * bound, flag))

    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)

    for w in workloads if args.trace_runs else []:
        layers, own = {}, {}
        for i in range(args.trace_runs):
            result, extra = run_once(w, 1 + i, seconds, 1)
            if result is None or not result["correct"]:
                print("%s traced seed %d: FAILED" % (w, 1 + i))
                flagged += 1
                continue
            for name, m in result["metrics"].items():
                layers.setdefault(name, []).append(m["value"])
            for line in extra:
                for name, m in line.get("traced_end_to_end", {}).items():
                    own.setdefault(name, []).append(m["value"])
        print("\n== %s: traced, %d runs ==" % (w, args.trace_runs))
        for name, vals in sorted(layers.items()):
            med, _, _, iqr, _ = spread(vals)
            print("%-30s %16.4f  (iqr/med %.1f%%)" % (name, med, 100 * iqr))
        untraced = values.get(w) or baseline.get(w, {})
        for name, vals in sorted(own.items()):
            if untraced.get(name):
                ref = statistics.median(untraced[name])
                print("tracing overhead %-14s traced %.4f vs untraced %.4f "
                      "(%+.1f%%)" % (name, statistics.median(vals), ref,
                                     100 * (statistics.median(vals) - ref) / ref))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
