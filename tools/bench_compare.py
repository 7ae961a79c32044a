#!/usr/bin/env python3
"""Compare two BENCH_scenarios.json files (baseline vs. candidate).

Prints a per-scenario table of events/sec with the speedup factor, and exits
nonzero when --max-regress is given and any scenario slowed down by more
than that factor (e.g. --max-regress 2.0 fails on a 2x slowdown). Without
the flag the comparison is informational, which is the right default for
shared CI runners whose absolute timings wobble.

Usage:
  tools/bench_compare.py BENCH_scenarios.json build/BENCH_scenarios.json
  tools/bench_compare.py --max-regress 2.0 baseline.json candidate.json
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return (
        {s["name"]: s for s in doc.get("scenarios", [])},
        {s["batch"]: s for s in doc.get("udp_batch", [])},
        {s["jobs"]: s for s in doc.get("sweep", [])},
    )


# Syscall-batching floors for --check-udp-batch, on the candidate's batched
# udp_batch rows (batch > 1). The hard contract is coalescing: the sendmmsg
# ring must actually share syscalls (datagrams per send syscall), which is a
# deterministic property of the ring, not a timing. The throughput ratio
# over the batch=1 baseline is also floored, but conservatively: how much a
# saved syscall buys depends on the host's syscall-entry cost (mitigation
# config) and on whether sender and receiver share a core — measured 1.2 to
# 1.3x on a 1-core dev host with cheap syscalls, far more where entry costs
# approach a microsecond. The floor asserts batching never regresses and
# measurably helps everywhere, without encoding one host's mitigation
# settings into CI.
UDP_BATCH_MIN_DGRAMS_PER_SYSCALL = 8.0
UDP_BATCH_MIN_SPEEDUP = 1.05

# Sweep-engine scaling floors for --check-sweep-scaling: the parallel
# (spec, seed) sweep shares nothing between jobs, so aggregate capacity
# (CPU-time normalized by the slowest worker, so stable on 1-core shared
# runners) must reach these multiples of the jobs=1 run.
SWEEP_SCALING_FLOORS = {2: 1.5, 4: 2.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--max-regress",
        type=float,
        default=None,
        metavar="FACTOR",
        help="fail when events/sec drops by more than FACTOR on any scenario",
    )
    ap.add_argument(
        "--check-udp-batch",
        action="store_true",
        help="fail unless the candidate's batched udp_batch rows reach "
        f"{UDP_BATCH_MIN_DGRAMS_PER_SYSCALL:.0f} datagrams/send-syscall and "
        f"{UDP_BATCH_MIN_SPEEDUP}x the batch=1 packet rate",
    )
    ap.add_argument(
        "--check-sweep-scaling",
        action="store_true",
        help="fail unless the candidate's sweep throughput reaches "
        + ", ".join(f"{v}x at {k} jobs" for k, v in SWEEP_SCALING_FLOORS.items()),
    )
    args = ap.parse_args()

    base, base_udp, base_sweep = load(args.baseline)
    cand, cand_udp, cand_sweep = load(args.candidate)

    rows = []
    failed = []
    for name in sorted(set(base) | set(cand)):
        b = base.get(name)
        c = cand.get(name)
        if b is None or c is None:
            rows.append((name, b, c, None))
            continue
        b_eps = b.get("events_per_sec", 0.0)
        c_eps = c.get("events_per_sec", 0.0)
        speedup = c_eps / b_eps if b_eps > 0 else float("inf")
        rows.append((name, b_eps, c_eps, speedup))
        if args.max_regress is not None and speedup < 1.0 / args.max_regress:
            failed.append((name, speedup))

    print(f"{'scenario':<28} {'baseline ev/s':>14} {'candidate ev/s':>15} {'speedup':>8}")
    for name, b, c, speedup in rows:
        if speedup is None:
            side = "baseline" if c is None else "candidate"
            print(f"{name:<28} {'—':>14} {'—':>15}   (missing in {side})")
        else:
            print(f"{name:<28} {b:>14,.0f} {c:>15,.0f} {speedup:>7.2f}x")

    sweep_failed = []
    if base_sweep or cand_sweep:
        print()
        print(
            f"{'sweep throughput':<28} {'baseline ev/cpu-s':>18} "
            f"{'candidate ev/cpu-s':>19} {'cand scaling':>13}"
        )
        for jobs in sorted(set(base_sweep) | set(cand_sweep)):
            b_eps = base_sweep.get(jobs, {}).get("agg_events_per_cpu_sec")
            c_eps = cand_sweep.get(jobs, {}).get("agg_events_per_cpu_sec")
            scaling = cand_sweep.get(jobs, {}).get("speedup_vs_1job")
            b_col = f"{b_eps:,.0f}" if b_eps is not None else "—"
            c_col = f"{c_eps:,.0f}" if c_eps is not None else "—"
            s_col = f"{scaling:.2f}x" if scaling is not None else "—"
            print(f"{f'{jobs} job(s)':<28} {b_col:>18} {c_col:>19} {s_col:>13}")
        if args.check_sweep_scaling:
            for jobs, floor in SWEEP_SCALING_FLOORS.items():
                got = cand_sweep.get(jobs, {}).get("speedup_vs_1job", 0.0)
                if got < floor:
                    sweep_failed.append((jobs, got, floor))
    elif args.check_sweep_scaling:
        sweep_failed.append((0, 0.0, 0.0))

    udp_failed = []
    if base_udp or cand_udp:
        print()
        print(
            f"{'udp batching':<28} {'baseline pkt/s':>15} "
            f"{'candidate pkt/s':>16} {'dgrams/syscall':>15} {'speedup':>8}"
        )
        for batch in sorted(set(base_udp) | set(cand_udp)):
            b_pps = base_udp.get(batch, {}).get("packets_per_sec")
            c = cand_udp.get(batch, {})
            b_col = f"{b_pps:,.0f}" if b_pps is not None else "—"
            c_col = f"{c['packets_per_sec']:,.0f}" if c else "—"
            d_col = f"{c['datagrams_per_send_syscall']:.2f}" if c else "—"
            s_col = f"{c['speedup_vs_batch1']:.2f}x" if c else "—"
            print(
                f"{f'batch={batch}':<28} {b_col:>15} {c_col:>16} "
                f"{d_col:>15} {s_col:>8}"
            )
        if args.check_udp_batch:
            batched = {b: s for b, s in cand_udp.items() if b > 1}
            if not batched:
                udp_failed.append("no batched udp_batch row in the candidate")
            for batch, s in sorted(batched.items()):
                dps = s.get("datagrams_per_send_syscall", 0.0)
                spd = s.get("speedup_vs_batch1", 0.0)
                if dps < UDP_BATCH_MIN_DGRAMS_PER_SYSCALL:
                    udp_failed.append(
                        f"batch={batch} coalesced {dps:.2f} datagrams/send-"
                        f"syscall (floor {UDP_BATCH_MIN_DGRAMS_PER_SYSCALL:.0f})"
                    )
                if spd < UDP_BATCH_MIN_SPEEDUP:
                    udp_failed.append(
                        f"batch={batch} ran at {spd:.2f}x the batch=1 packet "
                        f"rate (floor {UDP_BATCH_MIN_SPEEDUP}x)"
                    )
    elif args.check_udp_batch:
        udp_failed.append("candidate has no udp_batch section")

    for name, speedup in failed:
        print(
            f"REGRESSION: {name} at {speedup:.2f}x of baseline "
            f"(threshold {1.0 / args.max_regress:.2f}x)",
            file=sys.stderr,
        )
    for jobs, got, floor in sweep_failed:
        if jobs == 0:
            print("SWEEP: candidate has no sweep section", file=sys.stderr)
        else:
            print(
                f"SWEEP: {jobs} jobs reached {got:.2f}x of the 1-job "
                f"aggregate (floor {floor}x)",
                file=sys.stderr,
            )
    for msg in udp_failed:
        print(f"UDP-BATCH: {msg}", file=sys.stderr)
    return 1 if failed or udp_failed or sweep_failed else 0


if __name__ == "__main__":
    sys.exit(main())
