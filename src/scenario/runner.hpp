#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/fault_injector.hpp"
#include "harness/world.hpp"
#include "scenario/backend.hpp"
#include "scenario/invariants.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"
#include "util/histogram.hpp"

namespace ssr::scenario {

/// The simulator fabric: one fresh World on the deterministic scheduler,
/// driven by the ScenarioBackend interpreter. One (spec, seed) pair names
/// exactly one execution: the same pair always produces a byte-identical
/// trace (and therefore hash).
class ScenarioRunner final : public ScenarioBackend {
 public:
  /// Builds the World and boots the initial cohort.
  ScenarioRunner(ScenarioSpec spec, std::uint64_t seed);

  harness::World& world() { return world_; }
  TraceRecorder& trace() override { return trace_; }
  InvariantRegistry& invariants() override { return registry_; }

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

  /// kBusy: the client never went idle; kFailed: refused, aborted, or
  /// still in flight at the deadline.
  enum class Attempt { kBusy, kCompleted, kFailed };

  /// How often an await checks its predicate.
  static constexpr SimTime kPollStep = 20 * kMsec;

  // -- Fabric primitives ------------------------------------------------------
  /// The constructor booted the cohort.
  bool bootstrap() override { return true; }
  void spawn(NodeId id) override;
  void crash(NodeId id) override;
  /// The closest fabric analog of SIGSTOP: a stopped process takes no
  /// steps and answers nothing, so from its peers' point of view it is
  /// unreachable until resumed.
  void pause(NodeId id) override;
  void resume(NodeId id) override;
  void cut(const IdSet& a, const IdSet& b) override {
    world_.network().split(a, b);
  }
  void heal() override { world_.network().heal(); }
  void inject(NodeId id, const StateFault& f) override;
  void garbage(std::uint64_t per_channel) override {
    injector_.fill_channels_with_garbage(per_channel);
  }
  void increments(const IdSet& targets, std::uint64_t per_node) override;
  void shmem(const IdSet& targets, bool write, const std::string& reg,
             std::uint64_t salt) override;
  void harvest() override;
  void run_for(SimTime d) override { world_.run_for(d); }
  bool wait_until(SimTime budget, const std::function<bool()>& met) override {
    return await(budget, met);
  }
  /// Predicates read live node state; there is nothing to refresh.
  void refresh() override {}
  bool drain(SimTime budget) override;
  IdSet alive() override { return world_.alive(); }
  node::NodeSnapshot snapshot(NodeId id) override {
    return node::NodeSnapshot::of(world_.node(id));
  }
  void fill_result(ScenarioResult& r) override;

  /// Runs until `pred` holds, checking before every `step`; true iff met in
  /// time.
  template <class Pred>
  bool await(SimTime timeout, Pred pred, SimTime step = kPollStep) {
    for (SimTime waited = 0;; waited += step) {
      if (pred()) return true;
      if (waited >= timeout) return false;
      world_.run_for(step);
    }
  }

  /// One increment on node `id`: waits up to `busy_budget` for the client
  /// to go idle, begins, and waits up to `done_budget`.
  Attempt increment_once(NodeId id, SimTime busy_budget, SimTime done_budget);
  void record_increment(NodeId id, const PendingIncrement& st);

  /// Buffer-pool counters at construction, for per-run deltas.
  wire::BufferPool::Stats pool_at_start_;
  harness::World world_;
  harness::FaultInjector injector_;
  InvariantRegistry registry_;
  TraceRecorder trace_;
  /// Virtual-time client-op latencies across every workload action.
  util::LatencyHistogram op_latency_;
  /// Attempts whose await timed out with the operation still in flight;
  /// re-harvested after every workload and once more before check_all().
  std::vector<std::pair<NodeId, std::shared_ptr<PendingIncrement>>>
      outstanding_;
};

/// Convenience: build, run, and summarize in one call.
ScenarioResult run_scenario(const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace ssr::scenario
