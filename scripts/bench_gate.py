#!/usr/bin/env python3
"""Bench regression gate: fresh run vs the committed BENCH_*.json records.

Runs scripts/bench_json.sh into a temporary directory (never touching the
committed records) and pairs every committed BENCH_*.json with the fresh
file of the same name. Every record has one schema, written by the harness
(src/harness/experiment.hpp):

  {"experiment": E, "scale": S, "reps": N, "seed": X,
   "rows": [{"app": A, "config": C, "threads": T,
             "samples": [seconds of every rep], "counters": {name: n}}]}

Every row, keyed by (app, config, threads), gets the same rules:

  1. the median of its samples must agree within a x(1 +/- tol) ratio;
  2. if its app has a "baseline" row at the same thread count, its
     improvement over that baseline must agree within +/- tol points;
  3. on 1-thread rows every counter must agree within +/- tol % relative
     (an absent counter is 0, so zero vs nonzero is a violation):
     single-thread counters are a property of the fixed-seed workload, so
     drift there means behaviour changed, not the scheduler;
  4. a committed row missing from the fresh run is a violation;
  5. work check: a row with commits == 0 or a median under 100 us did not
     measure real work. In the fresh run that is a violation.

Default mode is ADVISORY: violations are printed loudly but the exit code
stays 0, because a shared 1-core box is noisy (+/-10% run to run) and a
scheduler hiccup must not turn the whole gate red. Pass --strict to make
violations fatal (use on quiet hardware, or when chasing a suspected
regression).

A malformed committed record is fatal EVEN in advisory mode: unparseable
JSON, a schema violation, or a row failing the work check of rule 5.
Advisory exists to absorb scheduler noise, and a committed record that is
corrupt or measured no work is repo corruption, not noise.

Usage: scripts/bench_gate.py [--strict] [--tolerance PCT] [--skip-run]
                             [--report-out PATH]
  --tolerance PCT   comparison half-width, default 25 (percent / points)
  --skip-run        compare an existing OUT_DIR (env) instead of running
  --report-out PATH mirror all output into PATH (written incrementally, so
                    the report survives a crash mid-comparison — CI points
                    this at ci-artifacts/ and uploads it unconditionally)
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MIN_SECONDS = 100e-6  # rule 5: a timed region shorter than this is noise


class MalformedRecord(Exception):
    """A committed BENCH_*.json that cannot be trusted as a baseline."""


class _Tee:
    """Mirrors writes to every stream; flushes eagerly so --report-out
    holds everything printed so far even if a later comparison crashes."""

    def __init__(self, *streams):
        self._streams = streams

    def write(self, s):
        for st in self._streams:
            st.write(s)
            st.flush()

    def flush(self):
        for st in self._streams:
            st.flush()


def row_key(row):
    return (row["app"], row["config"], row["threads"])


def row_name(key):
    return f"{key[0]}/{key[1]}@{key[2]}T"


def work_problem(row):
    """Rule 5: why @p row did not measure real work, or None."""
    if row["counters"].get("commits", 0) == 0:
        return "commits == 0"
    median = statistics.median(row["samples"])
    if median < MIN_SECONDS:
        return f"median {median * 1e6:.1f} us < {MIN_SECONDS * 1e6:.0f} us"
    return None


def load_record(path, work_floor=True):
    """Loads and schema-checks one record, raising MalformedRecord on parse
    errors, schema errors and (with @p work_floor) rows failing rule 5."""
    name = os.path.basename(path)
    try:
        with open(path) as f:
            rec = json.load(f)
    except (json.JSONDecodeError, OSError, UnicodeDecodeError) as e:
        raise MalformedRecord(f"{name}: {e}")

    def check(ok, what):
        if not ok:
            raise MalformedRecord(f"{name}: {what}")

    check(isinstance(rec, dict), "top level is not an object")
    for k, t in (("experiment", str), ("scale", (int, float)),
                 ("reps", int), ("seed", int), ("rows", list)):
        check(isinstance(rec.get(k), t), f"missing or mistyped '{k}'")
    seen = set()
    for row in rec["rows"]:
        check(isinstance(row, dict), "a row is not an object")
        for k, t in (("app", str), ("config", str), ("threads", int),
                     ("samples", list), ("counters", dict)):
            check(isinstance(row.get(k), t), f"row lacks '{k}': {row}")
        key = row_key(row)
        check(key not in seen, f"duplicate row {row_name(key)}")
        seen.add(key)
        check(len(row["samples"]) == rec["reps"] and
              all(isinstance(s, (int, float)) for s in row["samples"]),
              f"{row_name(key)}: samples are not {rec['reps']} numbers")
        check(all(isinstance(v, int) for v in row["counters"].values()),
              f"{row_name(key)}: counters are not integers")
        if work_floor:
            problem = work_problem(row)
            check(problem is None, f"{row_name(key)} did no work: {problem}")
    return rec


def compare(name, committed, fresh, tolerance, work_floor=True):
    """Applies rules 1-5 to every committed row of one record; returns
    (violations, report lines)."""
    tol = tolerance / 100.0
    violations, lines = [], []
    crows = {row_key(r): r for r in committed["rows"]}
    frows = {row_key(r): r for r in fresh["rows"]}

    def improvement(rows, key):
        base = rows.get((key[0], "baseline", key[2]))
        if base is None or key[1] == "baseline":
            return None
        return (statistics.median(base["samples"]) /
                statistics.median(rows[key]["samples"]) - 1.0) * 100.0

    for key, crow in crows.items():
        cell = f"{name}/{row_name(key)}"
        frow = frows.get(key)
        if frow is None:
            violations.append(f"{cell}: missing from fresh run")
            continue
        problem = work_problem(frow) if work_floor else None
        if problem is not None:
            violations.append(f"{cell}: did no work ({problem})")
        cmed = statistics.median(crow["samples"])
        fmed = statistics.median(frow["samples"])
        ratio = fmed / cmed if cmed > 0 else float("inf")
        if not 1.0 / (1.0 + tol) <= ratio <= 1.0 + tol:
            violations.append(f"{cell}: median {fmed:.6f}s vs committed "
                              f"{cmed:.6f}s (x{ratio:.2f})")
        line = f"  {cell:45s} {cmed:9.6f}s -> {fmed:9.6f}s (x{ratio:.2f})"
        cimp, fimp = improvement(crows, key), improvement(frows, key)
        if cimp is not None and fimp is not None:
            if abs(fimp - cimp) > tolerance:
                violations.append(
                    f"{cell}: improvement {fimp:+.1f}% vs committed "
                    f"{cimp:+.1f}% (delta {fimp - cimp:+.1f} points)")
            line += f"  improvement {cimp:+7.1f}% -> {fimp:+7.1f}%"
        if key[2] == 1:
            cc, fc = crow["counters"], frow["counters"]
            for counter in sorted(set(cc) | set(fc)):
                c, f = cc.get(counter, 0), fc.get(counter, 0)
                if (c == 0) != (f == 0) or abs(f - c) > tol * c:
                    violations.append(
                        f"{cell}: counter {counter} {f} vs committed {c}")
        lines.append(line)
    return violations, lines


def run(args):
    committed = sorted(glob.glob(os.path.join(REPO, "BENCH_*.json")))
    if not committed:
        print("bench_gate: no committed BENCH_*.json; nothing to gate")
        return 0
    # Load every committed record first: a malformed one is fatal before
    # the long fresh run starts.
    records = {os.path.basename(p): load_record(p) for p in committed}

    tmp_ctx = None
    if args.skip_run:
        out_dir = os.environ.get("OUT_DIR", ".")
    else:
        tmp_ctx = tempfile.TemporaryDirectory(prefix="bench_gate_")
        out_dir = tmp_ctx.name
        env = dict(os.environ, OUT_DIR=out_dir)
        print(f"bench_gate: running scripts/bench_json.sh (OUT_DIR={out_dir})")
        subprocess.run(
            [os.path.join(REPO, "scripts", "bench_json.sh")],
            check=True, cwd=REPO, env=env,
        )

    violations, lines = [], []
    for name, crec in records.items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            violations.append(f"{name}: missing from fresh run")
            continue
        try:
            frec = load_record(path, work_floor=False)
        except MalformedRecord as e:
            violations.append(f"fresh record malformed: {e}")
            continue
        v, l = compare(os.path.splitext(name)[0], crec, frec, args.tolerance)
        violations += v
        lines += l

    print("bench_gate: committed -> fresh medians (and improvements):")
    print("\n".join(lines))
    if tmp_ctx is not None:
        tmp_ctx.cleanup()

    if violations:
        print("!" * 64)
        print(f"bench_gate: {len(violations)} violation(s) outside the "
              f"+/-{args.tolerance:g} tolerance:")
        for v in violations:
            print(f"!!! {v}")
        print("!" * 64)
        if args.strict:
            return 1
        print("bench_gate: ADVISORY mode (1-core CI box): not failing the "
              "build; rerun with --strict to enforce")
        return 0

    print(f"bench_gate: all rows within +/-{args.tolerance:g}; green")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--strict", action="store_true",
                    help="exit non-zero on violations")
    ap.add_argument("--tolerance", type=float, default=25.0,
                    help="half-width in percent/points (default 25)")
    ap.add_argument("--skip-run", action="store_true",
                    help="compare an existing OUT_DIR instead of running")
    ap.add_argument("--report-out", metavar="PATH",
                    help="mirror all output into PATH (crash-safe)")
    args = ap.parse_args()

    report = None
    orig_stdout = sys.stdout
    if args.report_out:
        report_dir = os.path.dirname(args.report_out)
        if report_dir:
            os.makedirs(report_dir, exist_ok=True)
        report = open(args.report_out, "w")
        sys.stdout = _Tee(orig_stdout, report)
    try:
        return run(args)
    except MalformedRecord as e:
        # Fatal regardless of --strict: see the module docstring.
        print(f"bench_gate: FATAL: malformed committed record: {e}")
        print("bench_gate: advisory mode does not cover repo corruption; "
              "fix or re-record the committed BENCH_*.json")
        return 1
    finally:
        sys.stdout = orig_stdout
        if report is not None:
            report.close()


if __name__ == "__main__":
    sys.exit(main())
