#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "node/snapshot.hpp"
#include "scenario/invariants.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"
#include "util/histogram.hpp"
#include "util/types.hpp"

namespace ssr::scenario {

/// Outcome of one scenario execution, shared by every backend. Simulator
/// runs fill the determinism fields (trace_hash, sched_events,
/// pool_acquired); process runs leave them at their sim-only defaults and
/// report wall time through sim_time.
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
  /// Scheduler events executed during the run. Simulator only.
  std::uint64_t sched_events = 0;
  /// Payload buffers requested from the thread's wire::BufferPool during
  /// the run. Simulator only.
  std::uint64_t pool_acquired = 0;
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
  /// least one other. Syscalls well below the datagrams sent and received
  /// is the win.
  std::uint64_t net_syscalls = 0;
  std::uint64_t net_batched = 0;
  std::vector<InvariantRegistry::Violation> violations;

  /// One line for the run, then one per violation.
  std::string summary() const;
};

/// One transient fault in one node's state, as the interpreter resolved it
/// from a fault action: a fabric plants it and decides nothing.
struct StateFault {
  enum class Kind : std::uint8_t {
    kRecsa,       ///< arbitrary recSA state over the ids in `ids`
    kFd,          ///< scrambled failure-detector heartbeat counts
    kConfig,      ///< the node believes configuration `ids`
    kCounter,     ///< near-exhausted counter with seqn `n`
    kRecmaFlags,  ///< stale recMA flags on the entries `ids` (n bit0 =
                  ///< noMaj, bit1 = needReconf)
  };
  Kind kind = Kind::kFd;
  IdSet ids = {};
  std::uint64_t n = 0;
};

/// The scenario interpreter: applies every ScenarioSpec action once, over
/// primitives that a fabric supplies. Two fabrics exist:
///  * ScenarioRunner  — the deterministic in-process simulator;
///  * ProcessRunner   — one real ssr_node OS process per node on localhost
///    UDP, with faults injected through OS primitives (signals, dropped
///    datagrams) and a control socket.
/// Every decision about what an action means lives here: which actions
/// close a closure window, that a reboot is a crash plus a fresh id, which
/// ids a state fault draws from. A fabric only does what it is told, so a
/// new ActionKind needs one case in apply() and, at most, a new primitive.
class ScenarioBackend {
 public:
  virtual ~ScenarioBackend() = default;
  ScenarioBackend(const ScenarioBackend&) = delete;
  ScenarioBackend& operator=(const ScenarioBackend&) = delete;

  /// bootstrap(), every phase through step(), then finish(). Call once.
  ScenarioResult run();
  /// Applies one action, recording it in the trace first. No-op once the
  /// run failed.
  void step(const Action& a);
  /// Final harvest, invariant evaluation and result assembly; call once,
  /// after the last step.
  ScenarioResult finish();

  /// The run's trace and invariant registry, owned by the fabric.
  virtual TraceRecorder& trace() = 0;
  virtual InvariantRegistry& invariants() = 0;

  /// An await missed its budget, or an action could not be applied.
  bool failed() const { return failed_; }
  /// The first failure; empty while there is none.
  const std::string& failure() const { return failure_; }

 protected:
  ScenarioBackend(ScenarioSpec spec, std::uint64_t seed);

  const ScenarioSpec& spec() const { return spec_; }
  /// The await_converged condition over the fabric's current snapshots:
  /// every alive node agrees on one configuration.
  bool converged();
  /// Records the run's first failure; later ones are dropped.
  void fail(std::string what);

  // -- Fabric primitives: no decisions ----------------------------------------

  /// Boots the initial cohort, ids 1..initial_nodes; false (with the
  /// failure recorded) when a node did not start.
  virtual bool bootstrap() = 0;
  /// Starts a fresh node `id` (never used before).
  virtual void spawn(NodeId id) = 0;
  virtual void crash(NodeId id) = 0;
  /// Freezes one node: to its peers it is unreachable until resume().
  virtual void pause(NodeId id) = 0;
  virtual void resume(NodeId id) = 0;
  /// Blocks traffic between `a` and `b` until heal(); cuts accumulate.
  virtual void cut(const IdSet& a, const IdSet& b) = 0;
  virtual void heal() = 0;
  virtual void inject(NodeId id, const StateFault& f) = 0;
  /// `per_channel` garbage packets into every channel.
  virtual void garbage(std::uint64_t per_channel) = 0;
  /// `per_node` sequential counter increments on each target.
  virtual void increments(const IdSet& targets, std::uint64_t per_node) = 0;
  /// One register write (payload from `salt`) or read on each target.
  virtual void shmem(const IdSet& targets, bool write, const std::string& reg,
                     std::uint64_t salt) = 0;
  /// Feeds completed operations not yet recorded to the counter-order
  /// monitor (incremental; safe to call repeatedly).
  virtual void harvest() = 0;
  /// Lets the fleet run for `d` (spec time).
  virtual void run_for(SimTime d) = 0;
  /// Runs until `met` holds, checking it at the fabric's sampling steps;
  /// false when `budget` (spec time, which the fabric maps to its own
  /// clock) passed first.
  virtual bool wait_until(SimTime budget, const std::function<bool()>& met) = 0;
  /// Brings every node's observed state up to date (a closure window opens
  /// next, and a change from before it must not count inside it).
  virtual void refresh() = 0;
  /// After every node crashed: true when the fleet went silent within
  /// `budget`.
  virtual bool drain(SimTime budget) = 0;
  virtual IdSet alive() = 0;
  /// The latest snapshot of alive node `id`; a default one (satisfying no
  /// predicate) when the fabric has not observed it yet.
  virtual node::NodeSnapshot snapshot(NodeId id) = 0;
  /// The fabric's own fields of the result: sim_time, sched_events, packet,
  /// pool and syscall totals, op_latency.
  virtual void fill_result(ScenarioResult& r) = 0;

 private:
  void apply(const Action& a);
  void fail(const Action& a, const std::string& detail) {
    fail(std::string(to_string(a.kind)) + ": " + detail);
  }
  /// Waits for `met` over the alive snapshots; a missed budget fails the
  /// run with `failure`.
  template <class Pred>
  bool await_alive(const Action& a, const char* failure, Pred met);
  /// The alive snapshots, taken lazily: a predicate stops at the first
  /// failing node, and later nodes are never snapshotted.
  auto snapshots();
  IdSet targets_or_alive(const Action& a) {
    return a.targets.empty() ? alive() : a.targets;
  }

  ScenarioSpec spec_;
  std::uint64_t seed_;
  /// Next fresh id: identifiers are never reused.
  NodeId next_id_;
  bool failed_ = false;
  std::string failure_;
};

}  // namespace ssr::scenario
