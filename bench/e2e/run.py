#!/usr/bin/env python3
"""Builds bench_e2e and the vmn CLI from source, then runs one workload.

    python3 bench/e2e/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 bench/e2e/run.py --smoke [--bin BENCH_E2E --vmn VMN]

The build lives in $CARGO_TARGET_DIR (default .bench_build) under the
checkout root, and scratch files in its e2e-work/ directory. Build output
goes to stderr, so the last line of stdout is bench_e2e's JSON result.

--smoke runs every workload for about a second, untraced and traced, and
fails unless each run prints exactly the metrics BENCHMARK.json lists and
gets every verdict right.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build():
    """Configures and builds the bench project; returns (bench_e2e, vmn)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: the vmn sources are missing; run from a checkout")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "e2e")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(out, "bench_e2e"), os.path.join(out, "repo", "vmn")


def bench_cmd(bench, vmn, workload, seed, seconds, trace, smoke=False):
    work = os.path.join(os.path.dirname(os.path.abspath(bench)), "e2e-work")
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--vmn", vmn,
           "--work", work,
           "--golden", os.path.join(HERE, "golden", workload + ".txt")]
    return cmd + (["--smoke"] if smoke else [])


def smoke(bench, vmn):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            run = subprocess.run(
                bench_cmd(bench, vmn, workload, 1, 1, trace, smoke=True),
                stdout=subprocess.PIPE, text=True)
            label = "%s --trace %d" % (workload, trace)
            try:
                result = json.loads(run.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(label + ": no JSON result (exit %d)"
                                % run.returncode)
                continue
            got = set(result["metrics"])
            if got != want[trace]:
                problems.append("%s: missing %s, unexpected %s" % (
                    label, sorted(want[trace] - got),
                    sorted(got - want[trace])))
            if run.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append("%s: %d of %d verdicts failed (exit %d)" % (
                    label, result["failed"], result["attempted"],
                    run.returncode))
            print("%s: %d verdicts, %d metrics" % (
                label, result["attempted"], len(got)))
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", help="prebuilt bench_e2e (skips the build)")
    ap.add_argument("--vmn", help="prebuilt vmn (with --bin)")
    args = ap.parse_args()
    if args.bin:
        bench, vmn = args.bin, args.vmn
    else:
        bench, vmn = build()
    if args.smoke:
        return smoke(bench, vmn)
    if not args.workload:
        ap.error("--workload is required")
    return subprocess.run(bench_cmd(bench, vmn, args.workload, args.seed,
                                    args.seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
