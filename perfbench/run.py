#!/usr/bin/env python3
"""Builds the kpm benchmark from the repository sources and runs one workload.

    python3 perfbench/run.py --workload dos_dram|service_mix|dist_elastic \
        --seed N --seconds S --trace 0|1 [--toy] [--corrupt]

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics and a Chrome trace-event file.  The build
goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and
run outputs (trace files, checkpoints) to .bench_build/perfbench-out.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dos_dram", "service_mix", "dist_elastic")
# Workloads that own layers no other workload runs (service; runtime and
# elastic).  A traced run of another workload adds a probe of each; the
# kernel layers run on every traced workload's own inputs.
LAYER_OWNERS = ("service_mix", "dist_elastic")
CHILD_TIMEOUT_S = 170


def threads_for(workload):
    """OpenMP team size per std::thread the workload starts, so that its
    compute threads never exceed the CPUs: dos_dram one team of nproc,
    service_mix nproc/2 workers x 2, dist_elastic 4 ranks x 1."""
    nproc = os.cpu_count() or 1
    return {"dos_dram": nproc, "service_mix": min(2, nproc), "dist_elastic": 1}[workload]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = Path(target) if os.path.isabs(target) else ROOT / target
    return base / "perfbench"


def build():
    bdir = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no library sources at %s; nothing to build" % (ROOT / "src"))
    bdir.mkdir(parents=True, exist_ok=True)
    log = sys.stderr
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            sys.exit("run.py: configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(bdir), "--target", "kpm_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        sys.exit("run.py: build failed")
    return bdir / "kpm_perfbench"


def run_child(binary, workload, args, extra, out_dir):
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(threads_for(workload))
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out-dir", str(out_dir)] + extra
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        sys.exit("run.py: %s printed no result (exit %d)" % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if proc.returncode not in (0, 1):  # 1 = a correctness check failed
        sys.exit("run.py: %s exited with %d" % (workload, proc.returncode))
    return result


def merge_traces(parts, path):
    events = []
    for pid, part in enumerate(parts, start=1):
        with open(part) as f:
            for e in json.load(f)["traceEvents"]:
                e["pid"] = pid
                events.append(e)
        os.remove(part)
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs (self-test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb one moment; the run must report correct=false")
    args = ap.parse_args()
    for var in ("OMP_PROC_BIND", "OMP_PLACES"):
        if var in os.environ:
            sys.exit("run.py: refusing to run with %s set: libgomp would pin every "
                     "rank and service worker thread to one CPU" % var)

    binary = build()
    out_dir = ROOT / ".bench_build" / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    flags = (["--toy"] if args.toy else []) + (["--corrupt"] if args.corrupt else [])

    if not args.trace:
        result = run_child(binary, args.workload, args, flags, out_dir)
    else:
        result = run_child(binary, args.workload, args, flags + ["--trace", "1"], out_dir)
        traces = [out_dir / ("trace-%s.json" % args.workload)]
        for owner in (w for w in LAYER_OWNERS if w != args.workload):
            probe = run_child(binary, owner, args, flags + ["--probe"], out_dir)
            traces.append(out_dir / ("trace-%s.json" % owner))
            result["correct"] = result["correct"] and probe["correct"]
            result["attempted"] += probe["attempted"]
            result["failed"] += probe["failed"]
            result["metrics"].update(probe["metrics"])
        path = out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        merge_traces(traces, path)
        print(json.dumps({"trace_file": str(path.relative_to(ROOT))}))

    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
