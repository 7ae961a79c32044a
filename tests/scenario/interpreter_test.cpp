// The scenario interpreter (ScenarioBackend) over a fake fabric that only
// records the primitive calls it receives: what every ActionKind means is
// pinned here once, without a simulator and without spawning daemons.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "scenario/backend.hpp"

namespace ssr::scenario {
namespace {

const char* name_of(StateFault::Kind k) {
  switch (k) {
    case StateFault::Kind::kRecsa: return "recsa";
    case StateFault::Kind::kFd: return "fd";
    case StateFault::Kind::kConfig: return "config";
    case StateFault::Kind::kCounter: return "counter";
    case StateFault::Kind::kRecmaFlags: return "recma";
  }
  return "?";
}

/// Fleets of nodes 1..initial_nodes that do nothing but log. A fleet's
/// snapshots satisfy every predicate when `converged` (each alive node a
/// participant agreeing on the alive set) and none otherwise; waits return
/// the predicate at once.
class FakeFabric final : public ScenarioBackend {
 public:
  struct Fleet {
    TraceRecorder trace;
    std::unique_ptr<InvariantRegistry> registry;
    IdSet alive;
    bool stalled = false;
    bool converged = false;
  };

  explicit FakeFabric(ScenarioSpec spec)
      : ScenarioBackend(std::move(spec), /*seed=*/1) {
    fleets.resize(this->spec().shards);
    for (Fleet& f : fleets) {
      f.trace.set_clock([] { return SimTime{0}; });
      f.registry = std::make_unique<InvariantRegistry>(
          InvariantRegistry::Clock([] { return SimTime{0}; }));
      for (std::size_t i = 1; i <= this->spec().initial_nodes; ++i) {
        f.alive.insert(static_cast<NodeId>(i));
      }
    }
  }

  /// Counts the trace events of `kind` fleet s recorded.
  std::size_t recorded(std::uint32_t s, TraceKind kind) const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < fleets[s].trace.size(); ++i) {
      if (fleets[s].trace[i].kind == kind) ++n;
    }
    return n;
  }

  std::vector<Fleet> fleets;
  std::vector<std::string> calls;
  /// (fleet, target) of every keyed attempt, in order.
  std::vector<std::pair<std::uint32_t, NodeId>> keyed;
  bool keyed_completes = true;

 private:
  void log(std::string call) { calls.push_back(std::move(call)); }
  static std::string str(std::uint64_t v) { return std::to_string(v); }

  TraceRecorder& fleet_trace(std::uint32_t s) override {
    return fleets[s].trace;
  }
  InvariantRegistry& fleet_registry(std::uint32_t s) override {
    return *fleets[s].registry;
  }
  bool bootstrap() override {
    log("bootstrap");
    return true;
  }
  void spawn(std::uint32_t s, NodeId id) override {
    log("spawn " + str(s) + " " + str(id));
    fleets[s].alive.insert(id);
  }
  void crash(std::uint32_t s, NodeId id) override {
    log("crash " + str(s) + " " + str(id));
    fleets[s].alive.erase(id);
  }
  void pause(std::uint32_t s, NodeId id) override {
    log("pause " + str(s) + " " + str(id));
  }
  void resume(std::uint32_t s, NodeId id) override {
    log("resume " + str(s) + " " + str(id));
  }
  void cut(std::uint32_t s, const IdSet& a, const IdSet& b) override {
    log("cut " + str(s) + " " + a.to_string() + " " + b.to_string());
  }
  void heal(std::uint32_t s) override { log("heal " + str(s)); }
  void inject(std::uint32_t s, NodeId id, const StateFault& f) override {
    log("inject " + str(s) + " " + str(id) + " " + name_of(f.kind) + " " +
        f.ids.to_string() + " " + str(f.n));
  }
  void garbage(std::uint32_t s, std::uint64_t per_channel) override {
    log("garbage " + str(s) + " " + str(per_channel));
  }
  void increments(std::uint32_t s, const IdSet& targets,
                  std::uint64_t per_node) override {
    log("increments " + str(s) + " " + targets.to_string() + " " +
        str(per_node));
  }
  void shmem(std::uint32_t s, const IdSet& targets, bool write,
             const std::string& reg, std::uint64_t salt) override {
    log("shmem " + str(s) + " " + targets.to_string() +
        (write ? " write " : " read ") + reg + " " + str(salt));
  }
  bool keyed_attempt(std::uint32_t s, NodeId target) override {
    log("keyed " + str(s));
    keyed.emplace_back(s, target);
    return keyed_completes;
  }
  void harvest() override { log("harvest"); }
  void run_for(SimTime d) override { log("run_for " + str(d)); }
  bool wait_until(SimTime budget, const std::function<bool()>& met) override {
    log("wait " + str(budget));
    return met();
  }
  void refresh() override { log("refresh"); }
  bool drain(std::uint32_t s, SimTime budget) override {
    log("drain " + str(s) + " " + str(budget));
    return true;
  }
  IdSet alive(std::uint32_t s) override { return fleets[s].alive; }
  bool stalled(std::uint32_t s) override { return fleets[s].stalled; }
  node::NodeSnapshot snapshot(std::uint32_t s, NodeId id) override {
    const Fleet& f = fleets[s];
    if (!f.converged) return {};
    node::NodeSnapshot snap;
    snap.id = id;
    snap.no_reco = true;
    snap.participant = true;
    snap.config = reconf::ConfigValue::set(f.alive);
    snap.vs.emplace();
    snap.vs->multicast = true;
    snap.vs->no_coordinator = false;
    snap.vs->coordinator = *f.alive.begin();
    snap.vs->view.id.seqn = 1;
    snap.vs->view.id.wid = *f.alive.begin();
    snap.vs->view.set = f.alive;
    return snap;
  }
  void fill_fleet_result(std::uint32_t, ScenarioResult&) override {}
};

ScenarioSpec fleets_of_three(std::uint32_t shards = 1,
                             std::uint32_t map_shards = 0) {
  ScenarioSpec s;
  s.name = "fake";
  s.initial_nodes = 3;
  s.shards = shards;
  s.map_shards = map_shards;
  return s;
}

using Calls = std::vector<std::string>;

struct Case {
  Action action;
  Calls calls;
  std::string failure;  ///< empty: the action must not fail the run
};

/// One case per ActionKind, each applied to a fresh fleet of nodes 1..3.
const std::vector<Case>& cases() {
  using A = Action;
  static const std::vector<Case> kCases = {
      {A::add_nodes(2), {"spawn 0 4", "spawn 0 5"}, ""},
      {A::crash({2}), {"crash 0 2"}, ""},
      {A::reboot({2}), {"crash 0 2", "spawn 0 4"}, ""},
      {A::split_network({1}, {2, 3}), {"cut 0 {1} {2,3}"}, ""},
      {A::heal_network(), {"heal 0"}, ""},
      {A::corrupt_recsa({2}), {"inject 0 2 recsa {1,2,3} 0"}, ""},
      {A::corrupt_fd(),
       {"inject 0 1 fd {} 0", "inject 0 2 fd {} 0", "inject 0 3 fd {} 0"},
       ""},
      {A::split_config_state({1, 2}, {3}),
       {"inject 0 1 config {1,2} 0", "inject 0 2 config {3} 0",
        "inject 0 3 config {3} 0"},
       ""},
      {A::garbage_channels(4), {"garbage 0 4"}, ""},
      {A::plant_exhausted_counter({1}, 99), {"inject 0 1 counter {} 99"}, ""},
      {A::plant_recma_flags({3}, true, false),
       {"inject 0 3 recma {1,2,3} 1"},
       ""},
      {A::increment_burst(2), {"increments 0 {1,2,3} 2", "harvest"}, ""},
      {A::shmem_write({1}, "r", 5), {"shmem 0 {1} write r 5"}, ""},
      {A::shmem_read({2}, "r"), {"shmem 0 {2} read r 0"}, ""},
      {A::run_for(kSec), {"run_for 1000000"}, ""},
      {A::await_converged(kSec),
       {"wait 1000000"},
       "await_converged: no convergence within the time budget"},
      {A::await_vs_stable(kSec),
       {"wait 1000000"},
       "await_vs_stable: VS layer did not stabilize"},
      {A::await_participants({1}, kSec),
       {"wait 1000000"},
       "await_participants: targets were not admitted as participants"},
      {A::await_config_equals_alive(kSec),
       {"wait 1000000"},
       "await_config_equals_alive: configuration did not catch up with the "
       "alive set"},
      {A::mark_stable(), {"refresh"}, ""},
      {A::crash_all(), {"crash 0 1", "crash 0 2", "crash 0 3"}, ""},
      // Nodes are still alive: a silence violation, and nothing drained.
      {A::await_quiescent(kSec), {}, ""},
      {A::pause_nodes({2}), {"pause 0 2"}, ""},
      {A::resume_nodes({2}), {"resume 0 2"}, ""},
      {A::keyed_increments(2, "k"), {"keyed 0", "keyed 0", "harvest"}, ""},
      {A::grow_map(), {}, "grow_map: the map already spans every fleet"},
  };
  return kCases;
}

constexpr auto kFirstKind = ActionKind::kAddNodes;
constexpr auto kLastKind = ActionKind::kGrowMap;

std::vector<ActionKind> every_kind() {
  std::vector<ActionKind> out;
  for (auto k = static_cast<unsigned>(kFirstKind);
       k <= static_cast<unsigned>(kLastKind); ++k) {
    out.push_back(static_cast<ActionKind>(k));
  }
  return out;
}

TEST(Interpreter, EveryActionKindHasACase) {
  for (ActionKind k : every_kind()) {
    std::size_t n = 0;
    for (const Case& c : cases()) n += c.action.kind == k ? 1 : 0;
    EXPECT_EQ(n, 1u) << to_string(k);
  }
}

TEST(Interpreter, EachKindCallsItsPrimitives) {
  for (const Case& c : cases()) {
    FakeFabric fake(fleets_of_three());
    fake.step(c.action);
    EXPECT_EQ(fake.calls, c.calls) << to_string(c.action.kind);
    EXPECT_EQ(fake.failure(), c.failure) << to_string(c.action.kind);
    // Every step is recorded before it is applied.
    EXPECT_EQ(fake.recorded(0, TraceKind::kActionApplied), 1u);
  }
}

TEST(Interpreter, RunBootsRecordsEveryPhaseOnEveryFleetAndHarvests) {
  ScenarioSpec spec = fleets_of_three(/*shards=*/2);
  spec.phases = {{"one", {Action::run_for(kSec)}},
                 {"two", {Action::heal_network().on_shard(1)}}};
  FakeFabric fake(spec);
  const ScenarioResult r = fake.run();
  EXPECT_EQ(fake.calls,
            (Calls{"bootstrap", "run_for 1000000", "heal 1", "harvest"}));
  for (std::uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(fake.recorded(s, TraceKind::kPhaseStart), 2u);
    EXPECT_EQ(fake.recorded(s, TraceKind::kActionApplied), 2u);
  }
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.fleets.size(), 2u);
  EXPECT_EQ(r.fleets[1].name, "fake/shard1");
  EXPECT_EQ(r.trace_events,
            r.fleets[0].trace_events + r.fleets[1].trace_events);
}

TEST(Interpreter, FailedRunAppliesNothingMore) {
  FakeFabric fake(fleets_of_three());
  fake.step(Action::await_converged(kSec));
  ASSERT_TRUE(fake.failed());
  fake.calls.clear();
  fake.step(Action::crash({1}));
  EXPECT_TRUE(fake.calls.empty());
  EXPECT_FALSE(fake.finish().ok);
}

// Theorem 3.16's closure window covers one fault-free stretch: exactly
// these kinds end it.
TEST(Interpreter, ClosureWindowKindSet) {
  const std::vector<ActionKind> closers = {
      ActionKind::kAddNodes,          ActionKind::kCrash,
      ActionKind::kReboot,            ActionKind::kSplitNetwork,
      ActionKind::kCorruptRecsa,      ActionKind::kCorruptFd,
      ActionKind::kSplitConfigState,  ActionKind::kGarbageChannels,
      ActionKind::kPlantExhaustedCounter, ActionKind::kPlantRecmaFlags,
      ActionKind::kCrashAll,          ActionKind::kPauseNodes};
  for (const Case& c : cases()) {
    FakeFabric fake(fleets_of_three());
    fake.fleets[0].converged = true;
    fake.step(Action::mark_stable());
    ASSERT_TRUE(fake.invariants().stable_marked());
    fake.step(c.action);
    const bool closes = std::find(closers.begin(), closers.end(),
                                  c.action.kind) != closers.end();
    EXPECT_EQ(fake.invariants().stable_marked(), !closes)
        << to_string(c.action.kind);
  }
}

TEST(Interpreter, SplitConfigFirstHalfOfAliveBelievesTargets) {
  ScenarioSpec spec = fleets_of_three();
  spec.initial_nodes = 5;
  FakeFabric fake(spec);
  fake.step(Action::crash({2}));  // alive {1,3,4,5}: halves {1,3} | {4,5}
  fake.calls.clear();
  fake.step(Action::split_config_state({1, 3}, {4, 5}));
  EXPECT_EQ(fake.calls, (Calls{"inject 0 1 config {1,3} 0",
                               "inject 0 3 config {1,3} 0",
                               "inject 0 4 config {4,5} 0",
                               "inject 0 5 config {4,5} 0"}));
  fake.calls.clear();
  fake.step(Action::crash({5}));  // odd: the first half is the smaller one
  fake.calls.clear();
  fake.step(Action::split_config_state({1}, {3, 4}));
  EXPECT_EQ(fake.calls, (Calls{"inject 0 1 config {1} 0",
                               "inject 0 3 config {3,4} 0",
                               "inject 0 4 config {3,4} 0"}));
}

TEST(Interpreter, RebootAndAddMintFreshIdsPerFleet) {
  FakeFabric fake(fleets_of_three(/*shards=*/2));
  fake.step(Action::reboot({2, 3}));
  fake.step(Action::add_nodes(1).on_shard(1));
  fake.step(Action::reboot({4}));
  fake.step(Action::reboot({1}).on_shard(1));
  EXPECT_EQ(fake.calls,
            (Calls{"crash 0 2", "spawn 0 4", "crash 0 3", "spawn 0 5",
                   "spawn 1 4", "crash 0 4", "spawn 0 6", "crash 1 1",
                   "spawn 1 5"}));
  EXPECT_EQ(fake.fleets[0].alive, (IdSet{1, 5, 6}));
}

// A state fault draws its ids from the fleet's alive set: a crashed id is
// out, a later joiner in.
TEST(Interpreter, FaultUniverseIsTheAliveSet) {
  FakeFabric fake(fleets_of_three());
  fake.step(Action::crash({3}));
  fake.step(Action::add_nodes(1));
  fake.calls.clear();
  fake.step(Action::corrupt_recsa({1}));
  fake.step(Action::plant_recma_flags({2, 4}, true, true));
  fake.step(Action::corrupt_recsa());
  EXPECT_EQ(fake.calls, (Calls{"inject 0 1 recsa {1,2,4} 0",
                               "inject 0 2 recma {1,2,4} 3",
                               "inject 0 4 recma {1,2,4} 3",
                               "inject 0 1 recsa {1,2,4} 0",
                               "inject 0 2 recsa {1,2,4} 0",
                               "inject 0 4 recsa {1,2,4} 0"}));
}

TEST(Interpreter, StalledFleetIsSkippedOnlyWithMoreThanOneFleet) {
  {
    FakeFabric fake(fleets_of_three(/*shards=*/2));
    fake.fleets[0].converged = true;
    fake.fleets[1].stalled = true;  // and never converges
    fake.step(Action::await_converged(kSec));
    EXPECT_FALSE(fake.failed()) << fake.failure();
    EXPECT_EQ(fake.recorded(0, TraceKind::kConverged), 1u);
    EXPECT_EQ(fake.recorded(1, TraceKind::kConverged), 0u);
    fake.step(Action::mark_stable());
    EXPECT_TRUE(fake.fleets[0].registry->stable_marked());
    EXPECT_FALSE(fake.fleets[1].registry->stable_marked());
    EXPECT_EQ(fake.recorded(1, TraceKind::kStableMarked), 0u);
  }
  {
    // A healthy fleet that does not converge fails the await.
    FakeFabric fake(fleets_of_three(/*shards=*/2));
    fake.fleets[0].converged = true;
    fake.step(Action::await_converged(kSec));
    EXPECT_TRUE(fake.failed());
  }
  {
    // One fleet is never skipped.
    FakeFabric fake(fleets_of_three());
    fake.fleets[0].stalled = true;
    fake.step(Action::mark_stable());
    EXPECT_TRUE(fake.invariants().stable_marked());
    fake.step(Action::await_converged(kSec));
    EXPECT_TRUE(fake.failed());
  }
}

TEST(Interpreter, AwaitsLookAtTheirFleetAndRecordSuccess) {
  FakeFabric fake(fleets_of_three(/*shards=*/2));
  fake.fleets[1].converged = true;
  fake.step(Action::await_vs_stable(kSec).on_shard(1));
  fake.step(Action::await_participants({1, 2}, kSec).on_shard(1));
  fake.step(Action::await_config_equals_alive(kSec).on_shard(1));
  EXPECT_FALSE(fake.failed()) << fake.failure();
  EXPECT_EQ(fake.recorded(1, TraceKind::kVsStable), 1u);
  EXPECT_EQ(fake.recorded(0, TraceKind::kVsStable), 0u);
  fake.step(Action::await_config_equals_alive(kSec));  // fleet 0: not met
  EXPECT_EQ(fake.failure(),
            "await_config_equals_alive: configuration did not catch up with "
            "the alive set");
}

TEST(Interpreter, AwaitQuiescentDrainsOnlyAfterCrashAll) {
  FakeFabric fake(fleets_of_three());
  fake.step(Action::await_quiescent(kSec));
  ASSERT_EQ(fake.finish().violations.size(), 1u);

  FakeFabric drained(fleets_of_three());
  drained.step(Action::crash_all());
  drained.calls.clear();
  drained.step(Action::await_quiescent(kSec));
  EXPECT_EQ(drained.calls, (Calls{"drain 0 1000000"}));
  EXPECT_EQ(drained.recorded(0, TraceKind::kQuiescent), 1u);
  EXPECT_TRUE(drained.finish().ok);
}

std::size_t attempts_on(const FakeFabric& fake, std::uint32_t s) {
  std::size_t n = 0;
  for (const auto& [fleet, target] : fake.keyed) n += fleet == s ? 1 : 0;
  return n;
}

// A queued map growth lands lazily inside the next keyed workload; any
// other action adopts it first.
TEST(Interpreter, QueuedMapGrowthIsAdoptedBeforeANonKeyedAction) {
  FakeFabric eager(fleets_of_three(/*shards=*/2, /*map_shards=*/1));
  eager.step(Action::grow_map());
  eager.step(Action::run_for(kSec));
  eager.step(Action::keyed_increments(16, "k"));
  EXPECT_GT(attempts_on(eager, 1), 0u);

  // Without an action in between, every attempt completes on the old map
  // and the growth is adopted only once the workload ends.
  FakeFabric lazy(fleets_of_three(/*shards=*/2, /*map_shards=*/1));
  lazy.step(Action::grow_map());
  lazy.step(Action::keyed_increments(16, "k"));
  EXPECT_EQ(attempts_on(lazy, 1), 0u);
  lazy.keyed.clear();
  lazy.step(Action::keyed_increments(16, "k"));
  EXPECT_EQ(attempts_on(lazy, 1), attempts_on(eager, 1));

  EXPECT_FALSE(lazy.failed());
  lazy.step(Action::grow_map());  // the map already spans both fleets
  EXPECT_EQ(lazy.failure(), "grow_map: the map already spans every fleet");
}

TEST(Interpreter, KeyedLedgerFailsTheRunOnAHealthyFleetAbort) {
  FakeFabric fake(fleets_of_three());
  fake.keyed_completes = false;
  fake.step(Action::keyed_increments(1, "k"));
  const ScenarioResult r = fake.finish();
  EXPECT_EQ(r.ops_attempted, 1u);
  EXPECT_EQ(r.ops_aborted_healthy, 1u);
  EXPECT_FALSE(r.ok);

  FakeFabric stalled(fleets_of_three());
  stalled.keyed_completes = false;
  stalled.fleets[0].stalled = true;
  stalled.step(Action::keyed_increments(1, "k"));
  const ScenarioResult rs = stalled.finish();
  EXPECT_EQ(rs.ops_aborted_faulted, 1u);
  EXPECT_TRUE(rs.ok);
}

}  // namespace
}  // namespace ssr::scenario
