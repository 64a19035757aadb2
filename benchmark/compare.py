#!/usr/bin/env python3
"""Compares untraced benchmark runs of two sets, per workload and metric.

  compare.py --base FILE... --change FILE...
      The files come from at least 10 parent/change pairs, run alternately
      (results files as run.sh writes them; give each run its own --out).
      The n-th base run of a workload pairs with its n-th change run. For
      every end-to-end metric of BENCHMARK.json it prints both sides'
      median and quartiles, the share of pairs the change wins (ties count
      for neither) and a verdict:
        improved    the change wins at least 9 in 10 pairs, and the medians
                    differ, its way, by more than the parent's quartile
                    distance
        unresolved  the parent's quartile distance is wider than the
                    metric's bound, and not every change run beats every
                    parent run
        regressed   the change's median is worse than the parent's by more
                    than the bound
        unchanged   otherwise
      Exits 1 when a metric regressed.

  compare.py --self --base FILE... --change FILE...
      Two sets of runs of the same code. Passes when every metric's two
      medians lie within its bound of each other; exits 1 otherwise.

Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    """{workload: {metric: [values in file order]}} of the untraced runs."""
    vals = {}
    for path in paths:
        with open(path) as f:
            for run in json.load(f)["runs"]:
                if run["trace"]:
                    continue
                per = vals.setdefault(run["workload"], {})
                for name, m in run["metrics"].items():
                    per.setdefault(name, []).append(m["value"])
    return vals


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """(verdict, win share) for one metric of one workload."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    share = wins / len(pairs)
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    gain = sign * (bm - cm)  # > 0: the change is better
    if share >= 0.9 and gain > b3 - b1:
        return "improved", share
    beats_all = (max(change) < min(base)) if sign > 0 else (min(change) > max(base))
    if (b3 - b1) > bound * abs(bm) and not beats_all:
        return "unresolved", share
    if -gain > bound * abs(bm):
        return "regressed", share
    return "unchanged", share


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--self", dest="self_check", action="store_true",
                    help="both sets ran the same code")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, change = load(args.base), load(args.change)
    failures = 0
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or name not in change:
            print(f"{name}: no runs in {'base' if name not in base else 'change'}")
            failures += 1
            continue
        print(f"== {name}")
        for m in spec["end_to_end"]:
            b = base[name].get(m["name"], [])
            c = change[name].get(m["name"], [])
            if not b or not c:
                print(f"   {m['name']:12s} missing")
                failures += 1
                continue
            b1, bm, b3 = quartiles(b)
            c1, cm, c3 = quartiles(c)
            delta = (cm - bm) / bm if bm else 0.0
            head = (f"   {m['name']:12s} base {bm:11.5g} [{b1:.5g}, {b3:.5g}] "
                    f"change {cm:11.5g} [{c1:.5g}, {c3:.5g}] "
                    f"{100 * delta:+6.2f}%")
            if args.self_check:
                ok = abs(delta) <= m["bound"]
                failures += not ok
                spread = max((b3 - b1) / bm, (c3 - c1) / cm) if bm and cm else 0.0
                print(f"{head}  bound {100 * m['bound']:.0f}%  "
                      f"spread {100 * spread:5.2f}%  {'ok' if ok else 'FAIL'}")
            else:
                v, share = verdict(b, c, m["better"], m["bound"])
                failures += v == "regressed"
                print(f"{head}  wins {share:4.2f}  {v}")
        pairs = min(len(v) for v in base[name].values())
        if not args.self_check and pairs < 10:
            print(f"   only {pairs} pairs: a verdict needs at least 10")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
