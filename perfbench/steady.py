#!/usr/bin/env python3
"""Steadiness check: runs each workload k times with distinct seeds and prints,
for every end-to-end metric, its median, quartiles and spread (interquartile
distance over the median) against the bound in BENCHMARK.json.

    python3 perfbench/steady.py [--k 10] [--workloads a,b] [--seconds S]
                                [--first-seed 1] [--raw FILE]

A spread above a third of its bound is flagged: two sets of runs of the same
commit could then disagree by more than the bound.  setup_s is listed but not
held to its bound (its median shift is what the bound guards).
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise SystemExit("steady.py: %s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    host = next((json.loads(l)["host"] for l in lines if l.startswith('{"host"')), {})
    return json.loads(lines[-1]), host


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--raw", help="also write every run's result JSON here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.k):
            seed = args.first_seed + i
            r, host = run_once(workload, seed, args.seconds)
            results.append(r)
            print("%s seed %d: correct=%s attempted=%d failed=%d steal_s=%s wall_s=%s" %
                  (workload, seed, r["correct"], r["attempted"], r["failed"],
                   host.get("steal_s", "?"), host.get("run_wall_s", "?")), flush=True)
        raw[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print("%s: failed share per run %s" % (workload, sorted(shares)))
        print("%-14s %14s %14s %14s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  <-- above bound/3" if spread > bound / 3 else ""
            print("%-14s %14.6g %14.6g %14.6g %8.4f %6.2f%s" %
                  (name, q1, med, q3, spread, bound, flag), flush=True)
    if args.raw:
        Path(args.raw).write_text(json.dumps(raw, indent=1))
    print("worst spread / bound (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
