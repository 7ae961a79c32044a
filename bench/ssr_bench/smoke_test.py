#!/usr/bin/env python3
"""ssr_bench --smoke check (registered as a ctest in this directory's CMake).

Runs every workload of BENCHMARK.json cut short (--smoke), untraced and
traced, and checks the result line against BENCHMARK.json:
exactly the keys correct/attempted/failed/metrics, correct == true, integer
counts, every end-to-end metric (untraced) or per-layer metric (traced) with
its declared unit and a finite value, end-to-end values nonzero, and a trace
file after a traced run. Then checks that an impossible recovery deadline
(1 ms) makes a fault workload exit 1 with counted failures.

    smoke_test.py --bench BIN --node-bin BIN --spec BENCHMARK.json [--out DIR]
"""

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path


def run(args, workload, trace, extra=()):
    cmd = [args.bench, "--workload", workload, "--seed", "1", "--seconds", "2",
           "--trace", "1" if trace else "0", "--smoke",
           "--node-bin", args.node_bin, "--out", args.out] + list(extra)
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None, p.stderr


def check_result(res, metrics, nonzero):
    errors = []
    if res is None:
        return ["no result line"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(res)}")
    for key in ("attempted", "failed"):
        if not isinstance(res.get(key), int) or isinstance(res.get(key), bool):
            errors.append(f"{key} is not an integer")
    if res.get("attempted", 0) < 1:
        errors.append("attempted < 1")
    got = res.get("metrics", {})
    want = {m["name"]: m["unit"] for m in metrics}
    if set(got) != set(want):
        errors.append(f"metric names differ: missing {sorted(set(want) - set(got))}"
                      f" extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            errors.append(f"{name}: {m} (want unit {unit})")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{name}: non-finite value {m['value']}")
        elif nonzero and m["value"] == 0:
            errors.append(f"{name}: end-to-end metric is 0")
    return errors


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--bench", required=True)
    p.add_argument("--node-bin", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    args = p.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    tmp = None
    if args.out is None:
        tmp = tempfile.TemporaryDirectory(dir=".")
        args.out = tmp.name

    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (False, True):
            code, res, err = run(args, name, trace)
            metrics = spec["per_layer"] if trace else spec["end_to_end"]
            errors = check_result(res, metrics, nonzero=not trace)
            if code != 0 or not (res or {}).get("correct"):
                errors.append(f"exit {code}, correct {(res or {}).get('correct')}")
            if trace:
                trace_file = Path(args.out) / f"{name}.trace.jsonl"
                try:
                    rows = [json.loads(l) for l in trace_file.read_text().splitlines()]
                    if not rows or rows[0].get("kind") != "meta":
                        errors.append("trace.jsonl has no meta line")
                except (OSError, ValueError) as e:
                    errors.append(f"trace.jsonl: {e}")
            label = f"{name} trace={int(trace)}"
            print(f"{label}: {'ok' if not errors else 'FAIL'}", flush=True)
            for e in errors:
                failures.append(f"{label}: {e}")
            if errors:
                sys.stderr.write(err[-4000:])

    # An impossible recovery deadline must fail the run and be counted.
    code, res, _ = run(args, "fault-crash", False, ["--recover-deadline-ms", "1"])
    if code != 1 or res is None or res["failed"] < 1 or res["correct"]:
        failures.append(f"1 ms recovery deadline: exit {code}, result {res}")
    print(f"impossible deadline: {'ok' if code == 1 else 'FAIL'}", flush=True)

    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
