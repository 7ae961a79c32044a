#!/usr/bin/env python3
"""Compares two sets of ssr_bench runs, one row per (workload, metric).

    compare.py BASE_DIR NEW_DIR [--spec BENCHMARK.json]

Each directory holds <workload>.<run>.json results (run.py --runs K --record
DIR); traced results (<workload>.traced.<run>.json) are compared on the
per-layer metrics. Runs pair up by run index, so record both sides with the
same --seed; only indices present on both sides form pairs, and a run
missing from one side, or a pair whose seeds differ, is reported.

For every metric the row shows each side's median and quartiles, the bound
(end-to-end metrics only) and a verdict:
  worse       the new median is worse than the base median by more than the
              bound;
  better      the new side wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the base side's
              own quartile distance;
  unresolved  a side's quartile distance is wider than the bound and neither
              side beats every run of the other;
  unchanged   otherwise.
A workload on which the new side fails a larger share of its operations than
the base side gets no "better" verdicts. Metrics are never combined into one
score. Exits 1 when any end-to-end row is worse or unresolved, or when runs
do not pair up.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    """{(workload, traced): {run index: result}}."""
    runs = defaultdict(dict)
    for f in Path(directory).glob("*.json"):
        parts = f.name.split(".")
        if len(parts) < 3 or not parts[-2].isdigit():
            continue
        traced = "traced" in parts[1:-2]
        runs[(parts[0], traced)][int(parts[-2])] = json.loads(f.read_text())
    return runs


def pair_up(workload, b_runs, n_runs):
    """Run indices present on both sides; prints what does not pair."""
    both = sorted(set(b_runs) & set(n_runs))
    ok = True
    for side, runs in (("base", b_runs), ("new", n_runs)):
        missing = sorted((set(b_runs) | set(n_runs)) - set(runs))
        if missing:
            print(f"{workload}: {side} has no run {missing}", file=sys.stderr)
            ok = False
    for i in both:
        if b_runs[i].get("seed") != n_runs[i].get("seed"):
            print(f"{workload}: run {i} has seed {b_runs[i].get('seed')} on the "
                  f"base side and {n_runs[i].get('seed')} on the new side",
                  file=sys.stderr)
            ok = False
    return both, ok


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def fail_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def verdict(base, new, higher_better, bound):
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1 if higher_better else -1
    # Positive = the new side is better.
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if (n - b) * sign > 0)
    losses = sum(1 for b, n in pairs if (n - b) * sign < 0)
    new_dominates = min(n * sign for n in new) > max(b * sign for b in base)
    base_dominates = min(b * sign for b in base) > max(n * sign for n in new)
    gap = (nmed - bmed) * sign
    base_iqr = bq3 - bq1
    gain = pairs and wins >= 0.9 * len(pairs) and gap > base_iqr
    loss = pairs and losses >= 0.9 * len(pairs) and -gap > base_iqr
    if bound is None:
        return ("better" if gain else "worse" if loss else "unchanged"), wins, len(pairs)
    spread = max(base_iqr / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    if bmed and -gap / abs(bmed) > bound and (spread <= bound or base_dominates):
        return "worse", wins, len(pairs)
    if spread > bound and not (new_dominates or base_dominates):
        return "unresolved", wins, len(pairs)
    return ("better" if gain else "unchanged"), wins, len(pairs)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--spec", default=str(Path(__file__).resolve().parents[2] /
                                         "BENCHMARK.json"))
    a = p.parse_args()
    spec = json.loads(Path(a.spec).read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    base, new = load(a.base), load(a.new)

    bad = 0
    print(f"{'workload':<16} {'metric':<36} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'bound':>6} {'wins':>6}  verdict")
    for key in sorted(set(base) | set(new)):
        workload, traced = key
        both, ok = pair_up(workload, base.get(key, {}), new.get(key, {}))
        if not ok:
            bad += 1
        if not both:
            continue
        b_runs = [base[key][i] for i in both]
        n_runs = [new[key][i] for i in both]
        more_failures = fail_share(n_runs) > fail_share(b_runs)
        names = layers if traced else e2e
        for name, m in names.items():
            if not all(name in r["metrics"] for r in b_runs + n_runs):
                print(f"{workload}: {name} missing from a run", file=sys.stderr)
                bad += 1
                continue
            bv = [r["metrics"][name]["value"] for r in b_runs]
            nv = [r["metrics"][name]["value"] for r in n_runs]
            bound = None if traced else m["bound"]
            v, wins, pairs = verdict(bv, nv, m["better"] == "higher", bound)
            if v == "better" and more_failures:
                v = "unchanged (more failed ops)"
            if not traced and v in ("worse", "unresolved"):
                bad += 1
            bq1, bmed, bq3 = quartiles(bv)
            nq1, nmed, nq3 = quartiles(nv)
            print(f"{workload:<16} {name:<36} "
                  f"{bmed:>12.5g} [{bq1:>9.5g}, {bq3:>9.5g}] "
                  f"{nmed:>12.5g} [{nq1:>9.5g}, {nq3:>9.5g}] "
                  f"{'-' if bound is None else f'{bound:.2f}':>6} "
                  f"{wins:>3}/{pairs:<2}  {v}")
        print(f"{workload:<16} {'failed/attempted':<36} "
              f"{fail_share(b_runs):>34.5g} {fail_share(n_runs):>34.5g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
