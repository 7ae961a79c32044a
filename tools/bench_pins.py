#!/usr/bin/env python3
"""Exact gate on the deterministic ssr_bench counts.

    python3 tools/bench_pins.py            # compare against BENCH_pins.json
    python3 tools/bench_pins.py --update   # rewrite BENCH_pins.json

Runs `bench/ssr_bench/run.py --workload W --seed 1 --seconds 2` for each
simulator workload, once with `--trace 0` and once with `--trace 1`, and
compares the numbers that are pure functions of (workload, seed) exactly:
from the untraced run, virtual convergence time, virtual latencies, packets
per node-second and the attempted/failed counts; from the traced run, the
per-layer counts of scheduler events and delivered packets per node-second,
bytes per packet and token-link rounds per link-second. Wall-clock metrics
(setup_s, cpu_ms_per_node_s, peak_rss_mb, every *_ns and *_share) vary from
run to run and are not compared; neither is wire.allocs_per_event, which
counts the bench's own allocations. A change that moves a pinned count on
purpose re-pins with --update in its own commit and says which rule changed.

Exits 0 when every count matches, 1 on any mismatch or failed run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PIN_FILE = ROOT / "BENCH_pins.json"
RUN_PY = ROOT / "bench" / "ssr_bench" / "run.py"
WORKLOADS = ["steady-9", "smr-openloop", "fault-transient", "fault-conflict",
             "fault-partition", "fault-crash"]
SEED = 1
SECONDS = 2
METRICS = ["converge_ms", "latency_p50_ms", "latency_tail_ms",
           "pkts_per_node_s"]
COUNTS = ["attempted", "failed"]
TRACED_METRICS = ["sim.events_per_node_s", "net.pkts_delivered_per_node_s",
                  "wire.bytes_per_pkt", "dlink.rounds_per_link_s"]


def run(workload, trace):
    """The result object of one workload run, or None when the run failed."""
    cmd = [sys.executable, str(RUN_PY), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        res = None
    if proc.returncode != 0 or res is None or not res.get("correct"):
        traced = " traced" if trace else ""
        print(f"{workload}{traced}: run failed (exit {proc.returncode})",
              flush=True)
        return None
    return res


def measure(workload):
    """The pinned fields of one workload, or None when a run failed."""
    plain = run(workload, trace=False)
    traced = run(workload, trace=True) if plain else None
    if traced is None:
        return None
    pins = {name: plain["metrics"][name]["value"] for name in METRICS}
    pins.update({name: plain[name] for name in COUNTS})
    pins.update({name: traced["metrics"][name]["value"]
                 for name in TRACED_METRICS})
    return pins


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--update", action="store_true",
                   help=f"rewrite {PIN_FILE.name} from this tree's runs")
    a = p.parse_args()

    got = {}
    for workload in WORKLOADS:
        pins = measure(workload)
        if pins is None:
            return 1
        got[workload] = pins

    if a.update:
        PIN_FILE.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"wrote {PIN_FILE.name}")
        return 0

    pinned = json.loads(PIN_FILE.read_text())
    ok = True
    for workload in WORKLOADS:
        want = pinned.get(workload, {})
        for name in METRICS + COUNTS + TRACED_METRICS:
            have = got[workload][name]
            if want.get(name) == have:
                print(f"{workload} {name} {have} ok")
            else:
                print(f"{workload} {name} pinned {want.get(name)} got {have}"
                      " MISMATCH")
                ok = False
    if not ok:
        print(f"counts drifted from {PIN_FILE.name}; a change that moves "
              "them on purpose re-pins with --update")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
