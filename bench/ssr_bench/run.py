#!/usr/bin/env python3
"""Builds ssr_bench from source and runs its workloads.

One workload:
    python3 bench/ssr_bench/run.py --workload steady-9 --seed 7 --seconds 15 --trace 0
prints the workload's diagnostics on stderr and its result object
({"correct", "attempted", "failed", "metrics"}) as the last line of stdout;
exits nonzero when a correctness check failed.

--seconds sets the amount of work, not a wall-clock budget: each workload
does a fixed amount per second (virtual time, fault seeds or operations),
so runs with the same --seconds and --seed do the same work on any commit.

Every workload (no --workload):
    python3 bench/ssr_bench/run.py [--seed N] [--seconds S] [--traced] [--smoke]
                                   [--runs K --record DIR] [--rate OPS]
prints one "workload metric value unit" line per metric, keeps each result in
bench_out/<workload>.json (and, with --record, DIR/<workload>.<run>.json for
compare.py), and exits 1 if any correctness check failed. Run k of --runs uses
seed N + k.

The build goes to $CARGO_TARGET_DIR/ssr_bench (default .bench_build), relative
to the repository root; results go to bench_out/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["steady-9", "smr-openloop", "fault-transient", "fault-conflict",
             "fault-partition", "fault-crash", "fleet-3"]
# A workload run that outlives this is killed and counted as failed.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds ssr_bench and ssr_node; returns the build dir."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "ssr_bench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "ssr_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return build_dir


def run_workload(build_dir, workload, seed, seconds, trace, extra):
    """Runs one workload in its own process group; returns (exit code, stdout)."""
    cmd = [str(build_dir / "ssr_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--node-bin", str(build_dir / "ssr" / "ssr_node"),
           "--out", str(ROOT / "bench_out")] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, code = "", 124
    else:
        code = proc.returncode
    finally:
        # Daemons the bench spawned share its process group: none survive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return code, out


def last_json(out):
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def default_seconds():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    except (OSError, ValueError, KeyError):
        return 15


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="amount of work (default run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", choices=["0", "1"])
    p.add_argument("--traced", action="store_true",
                   help="every workload with per-layer tracing (--trace 1)")
    p.add_argument("--smoke", action="store_true",
                   help="a few sim-seconds, 2 fault seeds, a 200-op fleet")
    p.add_argument("--rate", type=float,
                   help="smr-openloop arrival rate in ops/s (max-rate search)")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--record", help="directory for <workload>.<run>.json")
    a = p.parse_args()

    build_dir = build()
    if build_dir is None:
        log("ssr_bench: build failed")
        return 3
    trace = a.traced or a.trace == "1"
    seconds = a.seconds if a.seconds is not None else default_seconds()
    extra = ["--smoke"] if a.smoke else []
    if a.rate:
        extra += ["--rate", str(a.rate)]

    if a.workload:
        code, out = run_workload(build_dir, a.workload, a.seed, seconds, trace,
                                 extra)
        sys.stdout.write(out)
        return code

    record = Path(a.record) if a.record else None
    if record:
        record.mkdir(parents=True, exist_ok=True)
    ok = True
    for run in range(a.runs):
        for workload in WORKLOADS:
            seed = a.seed + run
            code, out = run_workload(build_dir, workload, seed, seconds, trace,
                                     extra)
            res = last_json(out)
            if res is None:
                log(f"{workload}: no result (exit {code})")
                ok = False
                continue
            ok = ok and code == 0 and res["correct"]
            for name, m in sorted(res["metrics"].items()):
                print(f"{workload} {name} {m['value']:.6g} {m['unit']}", flush=True)
            print(f"{workload} correct {res['correct']} attempted "
                  f"{res['attempted']} failed {res['failed']}", flush=True)
            if record:
                suffix = ".traced" if trace else ""
                (record / f"{workload}{suffix}.{run}.json").write_text(
                    json.dumps({"seed": seed, **res}) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
