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

/// The simulator fabric: one fresh World per fleet (ScenarioSpec::shards)
/// on the deterministic scheduler, driven by the ScenarioBackend
/// interpreter. One (spec, seed) pair names exactly one execution: the same
/// pair always produces a byte-identical trace (and therefore hash).
class ScenarioRunner final : public ScenarioBackend {
 public:
  /// Builds every fleet's World and boots its initial cohort.
  ScenarioRunner(ScenarioSpec spec, std::uint64_t seed);

  /// Fleet 0's world (the only one of a one-fleet spec).
  harness::World& world() { return *fleets_.front().world; }

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

  // -- Fabric primitives ------------------------------------------------------
  TraceRecorder& fleet_trace(std::uint32_t s) override {
    return *fleets_[s].trace;
  }
  InvariantRegistry& fleet_registry(std::uint32_t s) override {
    return *fleets_[s].registry;
  }
  /// The constructor booted every cohort.
  bool bootstrap() override { return true; }
  void spawn(std::uint32_t s, NodeId id) override;
  void crash(std::uint32_t s, NodeId id) override;
  /// The closest fabric analog of SIGSTOP: a stopped process takes no
  /// steps and answers nothing, so from its peers' point of view it is
  /// unreachable until resumed.
  void pause(std::uint32_t s, NodeId id) override;
  void resume(std::uint32_t s, NodeId id) override;
  void cut(std::uint32_t s, const IdSet& a, const IdSet& b) override {
    fleets_[s].world->network().split(a, b);
  }
  void heal(std::uint32_t s) override { fleets_[s].world->network().heal(); }
  void inject(std::uint32_t s, NodeId id, const StateFault& f) override;
  void garbage(std::uint32_t s, std::uint64_t per_channel) override {
    fleets_[s].injector->fill_channels_with_garbage(per_channel);
  }
  void increments(std::uint32_t s, const IdSet& targets,
                  std::uint64_t per_node) override;
  void shmem(std::uint32_t s, const IdSet& targets, bool write,
             const std::string& reg, std::uint64_t salt) override;
  bool keyed_attempt(std::uint32_t s, NodeId target) override;
  void harvest() override;
  void run_for(SimTime d) override { advance(d); }
  bool wait_until(SimTime budget, const std::function<bool()>& met) override {
    return await(budget, met);
  }
  /// Predicates read live node state; there is nothing to refresh.
  void refresh() override {}
  bool drain(std::uint32_t s, SimTime budget) override;
  IdSet alive(std::uint32_t s) override { return fleets_[s].world->alive(); }
  bool stalled(std::uint32_t s) override;
  node::NodeSnapshot snapshot(std::uint32_t s, NodeId id) override {
    return node::NodeSnapshot::of(fleets_[s].world->node(id));
  }
  void fill_fleet_result(std::uint32_t s, ScenarioResult& r) override;
  void fill_result(ScenarioResult& r) override;

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

  /// Buffer-pool counters at construction, for per-run deltas.
  wire::BufferPool::Stats pool_at_start_;
  std::vector<Fleet> fleets_;
};

/// Convenience: build, run, and summarize in one call.
ScenarioResult run_scenario(const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace ssr::scenario
