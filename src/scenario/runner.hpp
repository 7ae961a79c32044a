#pragma once

#include <algorithm>
#include <memory>
#include <string>

#include "harness/fault_injector.hpp"
#include "harness/world.hpp"
#include "scenario/backend.hpp"
#include "scenario/invariants.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"
#include "util/histogram.hpp"

namespace ssr::scenario {

/// Interprets a ScenarioSpec against fresh Worlds on the deterministic
/// scheduler, one World per fleet (ScenarioSpec::shards). One (spec, seed)
/// pair names exactly one execution: the same pair always produces a
/// byte-identical trace (and therefore hash).
class ScenarioRunner final : public ScenarioBackend {
 public:
  ScenarioRunner(ScenarioSpec spec, std::uint64_t seed);

  /// Runs every phase, then evaluates the invariant registries.
  ScenarioResult run() override;

  /// Fleet 0's world, trace and registry (the only ones of a one-fleet
  /// spec).
  harness::World& world() { return *fleets_.front().world; }
  TraceRecorder& trace() override { return *fleets_.front().trace; }
  InvariantRegistry& invariants() override {
    return *fleets_.front().registry;
  }

 private:
  /// Completion state of one increment attempt. Heap-held and captured by
  /// value in the client callback: a quorum operation can outlive the
  /// action that started it, and its callback must still have somewhere
  /// safe to write.
  struct PendingIncrement {
    SimTime started = 0;
    bool done = false;
    std::optional<counter::Counter> got;
  };

  /// One quorum group: its own fabric, protocol stack, invariant registry,
  /// trace and latency histogram. Fleets share nothing but the clock
  /// slices and the keyed client workload, which is what makes the
  /// cross-fleet isolation ledger meaningful.
  struct Fleet {
    std::unique_ptr<harness::World> world;
    std::unique_ptr<harness::FaultInjector> injector;
    std::unique_ptr<TraceRecorder> trace;
    std::unique_ptr<InvariantRegistry> registry;
    NodeId next_id = 1;
    /// Virtual-time client-op latencies across every workload action.
    util::LatencyHistogram op_latency;
    /// Attempts whose await timed out with the operation still in flight;
    /// re-harvested after every workload and once more before check_all().
    std::vector<std::pair<NodeId, std::shared_ptr<PendingIncrement>>>
        outstanding;
  };

  /// kBusy: the client never went idle; kFailed: refused, aborted, or
  /// still in flight at the deadline.
  enum class Attempt { kBusy, kCompleted, kFailed };

  /// Lockstep slice when there is more than one fleet: no fleet's virtual
  /// clock leads another's by more than this.
  static constexpr SimTime kSlice = 20 * kMsec;

  void apply(const Action& a);
  NodeId add_fresh_node(Fleet& f);
  IdSet targets_or_alive(Fleet& f, const Action& a) const;
  /// Every alive node of `f` is paused. With more than one fleet,
  /// await_converged and mark_stable skip such a fleet.
  bool stalled(const Fleet& f) const;
  bool skipped(const Fleet& f) const {
    return fleets_.size() > 1 && stalled(f);
  }

  /// Advances every fleet by `d` in kSlice round-robin slices. With one
  /// fleet this is the same execution as a single run_for(d): the
  /// scheduler runs events in (time, sequence) order either way.
  void advance(SimTime d);

  /// Runs until `pred` holds, checking before every `step`; true iff met in
  /// time. With more than one fleet every step is a lockstep kSlice.
  template <class Pred>
  bool await(SimTime timeout, Pred pred, SimTime step = kSlice) {
    for (SimTime waited = 0;; waited += step) {
      if (pred()) return true;
      if (waited >= timeout) return false;
      if (fleets_.size() > 1) step = std::min(kSlice, timeout - waited);
      advance(step);
    }
  }

  /// One increment on node `id` of `f`: waits up to `busy_budget` for the
  /// client to go idle, begins, and waits up to `done_budget`.
  Attempt increment_once(Fleet& f, NodeId id, SimTime busy_budget,
                         SimTime done_budget);
  void record_increment(Fleet& f, NodeId id, const PendingIncrement& st);
  void do_await(Fleet& f, const Action& a);
  void do_increment_burst(Fleet& f, const Action& a);
  void do_keyed_increments(const Action& a);
  void do_shmem(Fleet& f, const Action& a, bool write);
  void do_await_quiescent(Fleet& f, const Action& a);
  void harvest_increments();
  ScenarioResult fleet_result(Fleet& f, std::string name) const;

  ScenarioSpec spec_;
  std::uint64_t seed_;
  /// Buffer-pool counters at construction, for per-run deltas.
  wire::BufferPool::Stats pool_at_start_;
  std::vector<Fleet> fleets_;
  KeyedWorkload keyed_;
};

/// Convenience: build, run, and summarize in one call.
ScenarioResult run_scenario(const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace ssr::scenario
