#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenario/invariants.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"
#include "shard/router.hpp"
#include "util/histogram.hpp"
#include "util/types.hpp"

namespace ssr::scenario {

/// Outcome of one scenario execution, shared by every backend. Simulator
/// runs fill the determinism fields (trace_hash, sched_events, pool_*);
/// process runs leave them at their sim-only defaults and report wall time
/// through sim_time.
struct ScenarioResult {
  std::string name;
  std::uint64_t seed = 0;
  /// Every await met its deadline and the invariant registry is clean.
  bool ok = false;
  /// First await that missed its deadline (empty when all met).
  std::string failure;
  std::uint64_t trace_hash = 0;
  std::size_t trace_events = 0;
  /// Virtual time under the simulator; wall time under the process backend.
  SimTime sim_time = 0;
  /// Scheduler events executed during the run — the unit bench_scenarios
  /// reports as events/sec. Simulator only.
  std::uint64_t sched_events = 0;
  /// Fabric totals summed over every channel (sim) or every transport
  /// (process) at the end of the run.
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  /// wire::BufferPool activity during the run (deltas of the thread pool):
  /// acquired = payload buffers requested, reused = served from the
  /// freelist. reused/acquired ≈ 1 is the zero-allocation steady state.
  /// Simulator only.
  std::uint64_t pool_acquired = 0;
  std::uint64_t pool_reused = 0;
  /// Client-op latency over every workload action (increments + register
  /// ops): completed-op count and p50/p99 in microseconds (virtual time
  /// under the simulator, wall time under the process backend). Zero when
  /// the scenario drives no workload.
  std::uint64_t ops_completed = 0;
  std::uint64_t op_p50_us = 0;
  std::uint64_t op_p99_us = 0;
  /// The full latency histogram behind the percentiles above, so sweep
  /// aggregation can merge bucket counts across runs (summing buckets is
  /// exact; averaging per-run percentiles is not).
  util::LatencyHistogram op_latency;
  /// UDP syscall batching, summed over the fleet's final STATUS samples
  /// (process backend only; the simulator makes no syscalls): sendmmsg +
  /// recvmmsg invocations, and datagrams that shared a send syscall with at
  /// least one other. batched/sent close to 1 means the ring is doing its
  /// job; syscalls well below packets_sent+packets_delivered is the win.
  std::uint64_t net_syscalls = 0;
  std::uint64_t net_batched = 0;
  /// The keyed workload's cross-fleet isolation ledger (keyed_increments):
  /// ops attempted, given-up ops split by whether their fleet was stalled
  /// (every alive node paused) when they gave up, and ops re-routed by a
  /// grow_map epoch change. An abort on a healthy fleet fails the run.
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_aborted_faulted = 0;
  std::uint64_t ops_aborted_healthy = 0;
  std::uint64_t ops_redirected = 0;
  std::vector<InvariantRegistry::Violation> violations;
  /// One result per fleet when the spec has shards > 1, empty otherwise.
  /// The fields above then aggregate them: counts add up, histograms
  /// merge, the trace hashes chain, violations carry their fleet's name.
  std::vector<ScenarioResult> fleets;

  /// One line per run, then its violations, then one line per fleet.
  std::string summary() const;
  /// Folds `fleets` into the aggregate fields (shards > 1).
  void fold_fleets();
};

/// The keyed client workload, written once for both backends: one
/// shard::Router over the spec's initial map plus the isolation ledger.
/// Per key: begin, target, attempt; after a failed attempt the router
/// decides retry, redirect or give-up. Only the attempt itself — one
/// increment on node X of fleet s — differs between the backends.
class KeyedWorkload {
 public:
  /// How a backend reaches its fleets.
  struct Fleets {
    /// Membership a client addresses in fleet s: its common configuration
    /// when it agrees on one, else its alive set.
    std::function<IdSet(std::uint32_t s)> membership;
    /// One increment attempt on node `target` of fleet s; true when it
    /// completed.
    std::function<bool(std::uint32_t s, NodeId target)> attempt;
    /// Every alive node of fleet s is paused.
    std::function<bool(std::uint32_t s)> stalled;
    /// The run has already failed: stop issuing ops.
    std::function<bool()> failed;
  };

  /// The map starts `map_shards` wide and may grow to `fleet_count`.
  KeyedWorkload(std::uint32_t map_shards, std::uint32_t fleet_count);

  /// keyed_increments: a.n ops on keys "<a.reg>:<i>".
  void run(const Action& a, const Fleets& fleets);
  /// grow_map: queues map().with_shard_added(). False (nothing queued) when
  /// the map already spans every fleet.
  bool queue_growth();
  /// Adopts a queued growth, if any.
  void adopt_queued_growth();
  /// Copies the ledger into `r`; healthy-fleet aborts fail it.
  void report(ScenarioResult& r) const;

 private:
  shard::Router router_;
  std::uint32_t fleet_count_;
  bool growth_queued_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t aborted_faulted_ = 0;
  std::uint64_t aborted_healthy_ = 0;
  std::uint64_t redirected_ = 0;
};

/// One way of executing a ScenarioSpec. Two implementations exist:
///  * ScenarioRunner  — the deterministic in-process simulator;
///  * ProcessRunner   — one real ssr_node OS process per node on localhost
///    UDP, with faults injected through OS primitives (signals, dropped
///    datagrams) and a control socket.
/// Both consume the same spec and evaluate the same InvariantRegistry, so a
/// scenario written once runs under either harness.
class ScenarioBackend {
 public:
  virtual ~ScenarioBackend() = default;

  /// Runs every phase, then evaluates the invariant registry. Call once.
  virtual ScenarioResult run() = 0;

  virtual TraceRecorder& trace() = 0;
  virtual InvariantRegistry& invariants() = 0;
};

}  // namespace ssr::scenario
