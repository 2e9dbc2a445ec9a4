#!/usr/bin/env python3
"""A/A steadiness check of the benchmark: two independent sets of runs.

Run from the repository root:

    python3 mapbench/steady.py [--runs 10] [--workloads cold_map,warm_pool]

Runs every workload of BENCHMARK.json as two sets of --runs untraced runs
(set A seeds 1..N, set B seeds 101..100+N, interleaved A, B, A, B, ... so a
slow drift of the host hits both sets alike). For each end-to-end metric it
prints each set's median and quartiles, the spread (quartile distance over
median), and whether the two sets agree within the metric's bound: each
set's spread within the bound and neither set's median
worse than the other's by more than the bound. It also prints the pooled
spread of all runs, against a third of the bound. Raw results go to
.bench_out/steady.json. Exit code 0 iff every check passes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, check=False)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.returncode != 0 or not last.startswith("{"):
        sys.stderr.write(out.stderr)
        sys.exit("steady: %s seed %d failed (exit %d)"
                 % (workload, seed, out.returncode))
    result = json.loads(last)
    if not result["correct"]:
        sys.exit("steady: %s seed %d produced incorrect output: %s"
                 % (workload, seed, last))
    return result


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(metric, base, other):
    """How much `other` is worse than `base`, as a share of `base`."""
    if metric["better"] == "lower":
        return (other - base) / base
    return (base - other) / base


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set")
    p.add_argument("--workloads", default="",
                   help="comma-separated subset (default: all)")
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]

    results = {}
    ok = True
    for name in names:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for label, seed in (("A", 1 + i), ("B", 101 + i)):
                result = run_once(bench, name, seed)
                sets[label].append({k: v["value"]
                                    for k, v in result["metrics"].items()})
                print("%s set %s seed %d: failed_share %g (%d of %d cells), "
                      "%s" % (name, label, seed,
                              result["failed"] / result["attempted"],
                              result["failed"], result["attempted"],
                              ", ".join("%s %.6g %s" % (k, v["value"],
                                                         v["unit"])
                                        for k, v in result["metrics"].items())),
                      flush=True)
        results[name] = sets
        print("\n%s (%d runs per set)" % (name, args.runs))
        print("%-24s %-5s %12s %12s %12s %7s %7s" %
              ("metric", "set", "median", "q1", "q3", "spread", "bound"))
        for metric in bench["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            label_m = "%s [%s]" % (m, metric["unit"])
            stats = {}
            for label in ("A", "B"):
                values = [r[m] for r in sets[label]]
                stats[label] = describe(values)
                med, q1, q3, spread = stats[label]
                good = spread <= bound
                ok &= good
                print("%-24s %-5s %12.5g %12.5g %12.5g %7.3f %7.2f %s" %
                      (label_m, label, med, q1, q3, spread, bound,
                       "ok" if good else "TOO NOISY"))
            pooled = describe([r[m] for s in sets.values() for r in s])
            shift = max(worse_by(metric, stats["A"][0], stats["B"][0]),
                        worse_by(metric, stats["B"][0], stats["A"][0]))
            agree = shift <= bound
            ok &= agree
            print("%-24s %-5s %12.5g %12s %12s %7.3f %7.2f %s; medians "
                  "differ by %.3f: %s" %
                  (label_m, "all", pooled[0], "", "", pooled[3], bound,
                   "below a third of the bound" if pooled[3] < bound / 3
                   else "above a third of the bound",
                   shift, "agree" if agree else "DISAGREE"))
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "steady.json"), "w") as f:
        json.dump(results, f, indent=1)
    print("\nA/A verdict: %s" % ("steady" if ok else "NOT steady"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
