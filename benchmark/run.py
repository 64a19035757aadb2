#!/usr/bin/env python3
"""Builds capbench and runs the repository benchmark (see README.md).

One workload, as an automated caller runs it:

  run.sh --workload NAME --seed N --seconds S --trace 0|1

  The last line of standard output is one JSON object with the keys
  correct, attempted, failed and metrics. The metrics are the end_to_end
  ones of BENCHMARK.json with --trace 0 and the per_layer ones with
  --trace 1.

Every workload, for a person:

  run.sh [--seed N] [--seconds S] [--trace] [--smoke] [--out FILE]

  Prints every metric by name, unit and sample count; --trace adds a
  separate traced run per workload and prints the per-layer metrics.
  --smoke runs 2 passes and 1 probe repetition per workload and checks
  that each metric BENCHMARK.json names is reported.

Both write the runs, with the machine they ran on, to
benchmark/out/results.json (or --out). The exit status is nonzero when the
build, a correctness check or a run fails.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "capbench")
OUT = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 20090811


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "capbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_workload(name, seed, seconds, trace, passes=0, probe_reps=0):
    cmd = [BINARY, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", OUT]
    if passes:
        cmd += ["--passes", str(passes)]
    if probe_reps:
        cmd += ["--probe-reps", str(probe_reps)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        run = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{name} exited with {proc.returncode} and printed no result")
    if proc.returncode not in (0, 1):
        fail(f"{name} exited with {proc.returncode}")
    return run


def missing(run, names):
    return [n for n in names
            if run["metrics"].get(n, {}).get("value") is None]


def git_head():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def compiler():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    out = subprocess.run([cxx, "--version"],
                                         capture_output=True, text=True)
                    return out.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return "unknown"


def write_results(path, runs):
    env = {"nproc": os.cpu_count(), "machine": platform.machine(),
           "compiler": compiler(), "git_head": git_head(),
           "date": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"env": env, "runs": runs}, f, indent=1)
    os.replace(tmp, path)


def print_run(run, names):
    mode = "traced" if run["trace"] else "untraced"
    print(f"== {run['workload']}  seed {run['seed']}  {mode}  "
          f"threads {run['threads']} on CPUs {run['affinity']}  "
          f"attempted {run['attempted']}  failed {run['failed']}  "
          f"correct {str(run['correct']).lower()}")
    for err in run["errors"]:
        print(f"   FAILED CHECK: {err}")
    for name in names:
        m = run["metrics"].get(name)
        if m is not None and m["value"] is not None:
            print(f"   {name:36s} {m['value']:16.6g} {m['unit']:6s} "
                  f"n={m['samples']}")


def print_spans(run):
    for name, m in run["spans"].items():
        print(f"   span {name:44s} {m['value']:12.4g} {m['unit']:3s} "
              f"n={m['samples']}")


def single(args, spec):
    """One workload for an automated caller: the result line last."""
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    run = run_workload(args.workload, args.seed, args.seconds, args.trace)
    write_results(args.out, [run])
    print_run(run, names)
    absent = missing(run, names)
    if absent:
        fail(f"{args.workload} did not report: {', '.join(absent)}")
    metrics = {n: {"value": run["metrics"][n]["value"],
                   "unit": run["metrics"][n]["unit"]} for n in names}
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if run["correct"] else 1


def every(args, spec):
    """Every workload for a person: metric tables, then a verdict."""
    e2e = [m["name"] for m in spec["end_to_end"]] + ["pass_s_p90", "lat_p99_us"]
    layer = [m["name"] for m in spec["per_layer"]]
    runs, problems = [], []
    for w in spec["workloads"]:
        plans = [True] if args.smoke else [False] + ([True] if args.trace else [])
        for trace in plans:
            run = run_workload(w["name"], args.seed, args.seconds, trace,
                               passes=2 if args.smoke else 0,
                               probe_reps=1 if args.smoke else 0)
            runs.append(run)
            print_run(run, e2e + (layer if trace else []))
            if trace:
                print_spans(run)
            if not run["correct"]:
                problems.append(f"{w['name']}: failed checks")
            absent = missing(run, e2e + (layer if trace else []))
            if absent:
                problems.append(f"{w['name']}: missing {', '.join(absent)}")
    write_results(args.out, runs)
    print(f"results: {args.out}")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                    choices=[0, 1])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", default=os.path.join(OUT, "results.json"))
    args = ap.parse_args()
    os.makedirs(OUT, exist_ok=True)
    build()
    return single(args, spec) if args.workload else every(args, spec)


if __name__ == "__main__":
    sys.exit(main())
