// The scenario interpreter (ScenarioBackend) over a fake fabric that only
// records the primitive calls it receives: what every ActionKind means is
// pinned here once, without a simulator and without spawning daemons.

#include <gtest/gtest.h>

#include <algorithm>
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

/// A fleet of nodes 1..initial_nodes that does nothing but log. Its
/// snapshots satisfy every predicate when `all_converged` (each alive node a
/// participant agreeing on the alive set) and none otherwise; waits return
/// the predicate at once.
class FakeFabric final : public ScenarioBackend {
 public:
  explicit FakeFabric(ScenarioSpec spec)
      : ScenarioBackend(std::move(spec), /*seed=*/1),
        registry_(InvariantRegistry::Clock([] { return SimTime{0}; })) {
    trace_.set_clock([] { return SimTime{0}; });
    for (std::size_t i = 1; i <= this->spec().initial_nodes; ++i) {
      alive_set.insert(static_cast<NodeId>(i));
    }
  }

  TraceRecorder& trace() override { return trace_; }
  InvariantRegistry& invariants() override { return registry_; }

  /// Counts the recorded trace events of `kind`.
  std::size_t recorded(TraceKind kind) const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      if (trace_[i].kind == kind) ++n;
    }
    return n;
  }

  IdSet alive_set;
  bool all_converged = false;
  std::vector<std::string> calls;

 private:
  void log(std::string call) { calls.push_back(std::move(call)); }
  static std::string str(std::uint64_t v) { return std::to_string(v); }

  bool bootstrap() override {
    log("bootstrap");
    return true;
  }
  void spawn(NodeId id) override {
    log("spawn " + str(id));
    alive_set.insert(id);
  }
  void crash(NodeId id) override {
    log("crash " + str(id));
    alive_set.erase(id);
  }
  void pause(NodeId id) override { log("pause " + str(id)); }
  void resume(NodeId id) override { log("resume " + str(id)); }
  void cut(const IdSet& a, const IdSet& b) override {
    log("cut " + a.to_string() + " " + b.to_string());
  }
  void heal() override { log("heal"); }
  void inject(NodeId id, const StateFault& f) override {
    log("inject " + str(id) + " " + name_of(f.kind) + " " +
        f.ids.to_string() + " " + str(f.n));
  }
  void garbage(std::uint64_t per_channel) override {
    log("garbage " + str(per_channel));
  }
  void increments(const IdSet& targets, std::uint64_t per_node) override {
    log("increments " + targets.to_string() + " " + str(per_node));
  }
  void shmem(const IdSet& targets, bool write, const std::string& reg,
             std::uint64_t salt) override {
    log("shmem " + targets.to_string() + (write ? " write " : " read ") +
        reg + " " + str(salt));
  }
  void harvest() override { log("harvest"); }
  void run_for(SimTime d) override { log("run_for " + str(d)); }
  bool wait_until(SimTime budget, const std::function<bool()>& met) override {
    log("wait " + str(budget));
    return met();
  }
  void refresh() override { log("refresh"); }
  bool drain(SimTime budget) override {
    log("drain " + str(budget));
    return true;
  }
  IdSet alive() override { return alive_set; }
  node::NodeSnapshot snapshot(NodeId id) override {
    if (!all_converged) return {};
    node::NodeSnapshot snap;
    snap.id = id;
    snap.no_reco = true;
    snap.participant = true;
    snap.config = reconf::ConfigValue::set(alive_set);
    snap.vs.emplace();
    snap.vs->multicast = true;
    snap.vs->no_coordinator = false;
    snap.vs->coordinator = *alive_set.begin();
    snap.vs->view.id.seqn = 1;
    snap.vs->view.id.wid = *alive_set.begin();
    snap.vs->view.set = alive_set;
    return snap;
  }
  void fill_result(ScenarioResult&) override {}

  TraceRecorder trace_;
  InvariantRegistry registry_;
};

ScenarioSpec three_nodes() {
  ScenarioSpec s;
  s.name = "fake";
  s.initial_nodes = 3;
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
      {A::add_nodes(2), {"spawn 4", "spawn 5"}, ""},
      {A::crash({2}), {"crash 2"}, ""},
      {A::reboot({2}), {"crash 2", "spawn 4"}, ""},
      {A::split_network({1}, {2, 3}), {"cut {1} {2,3}"}, ""},
      {A::heal_network(), {"heal"}, ""},
      {A::corrupt_recsa({2}), {"inject 2 recsa {1,2,3} 0"}, ""},
      {A::corrupt_fd(),
       {"inject 1 fd {} 0", "inject 2 fd {} 0", "inject 3 fd {} 0"},
       ""},
      {A::split_config_state({1, 2}, {3}),
       {"inject 1 config {1,2} 0", "inject 2 config {3} 0",
        "inject 3 config {3} 0"},
       ""},
      {A::garbage_channels(4), {"garbage 4"}, ""},
      {A::plant_exhausted_counter({1}, 99), {"inject 1 counter {} 99"}, ""},
      {A::plant_recma_flags({3}, true, false),
       {"inject 3 recma {1,2,3} 1"},
       ""},
      {A::increment_burst(2), {"increments {1,2,3} 2", "harvest"}, ""},
      {A::shmem_write({1}, "r", 5), {"shmem {1} write r 5"}, ""},
      {A::shmem_read({2}, "r"), {"shmem {2} read r 0"}, ""},
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
      {A::crash_all(), {"crash 1", "crash 2", "crash 3"}, ""},
      // Nodes are still alive: a silence violation, and nothing drained.
      {A::await_quiescent(kSec), {}, ""},
      {A::pause_nodes({2}), {"pause 2"}, ""},
      {A::resume_nodes({2}), {"resume 2"}, ""},
  };
  return kCases;
}

constexpr auto kFirstKind = ActionKind::kAddNodes;
constexpr auto kLastKind = ActionKind::kResumeNodes;

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
    FakeFabric fake(three_nodes());
    fake.step(c.action);
    EXPECT_EQ(fake.calls, c.calls) << to_string(c.action.kind);
    EXPECT_EQ(fake.failure(), c.failure) << to_string(c.action.kind);
    // Every step is recorded before it is applied.
    EXPECT_EQ(fake.recorded(TraceKind::kActionApplied), 1u);
  }
}

TEST(Interpreter, RunBootsRecordsEveryPhaseAndHarvests) {
  ScenarioSpec spec = three_nodes();
  spec.phases = {{"one", {Action::run_for(kSec)}},
                 {"two", {Action::heal_network()}}};
  FakeFabric fake(spec);
  const ScenarioResult r = fake.run();
  EXPECT_EQ(fake.calls,
            (Calls{"bootstrap", "run_for 1000000", "heal", "harvest"}));
  EXPECT_EQ(fake.recorded(TraceKind::kPhaseStart), 2u);
  EXPECT_EQ(fake.recorded(TraceKind::kActionApplied), 2u);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.name, "fake");
  EXPECT_EQ(r.trace_events, fake.trace().size());
  EXPECT_EQ(r.trace_hash, fake.trace().hash());
}

TEST(Interpreter, FailedRunAppliesNothingMore) {
  FakeFabric fake(three_nodes());
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
    FakeFabric fake(three_nodes());
    fake.all_converged = true;
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
  ScenarioSpec spec = three_nodes();
  spec.initial_nodes = 5;
  FakeFabric fake(spec);
  fake.step(Action::crash({2}));  // alive {1,3,4,5}: halves {1,3} | {4,5}
  fake.calls.clear();
  fake.step(Action::split_config_state({1, 3}, {4, 5}));
  EXPECT_EQ(fake.calls, (Calls{"inject 1 config {1,3} 0",
                               "inject 3 config {1,3} 0",
                               "inject 4 config {4,5} 0",
                               "inject 5 config {4,5} 0"}));
  fake.calls.clear();
  fake.step(Action::crash({5}));  // odd: the first half is the smaller one
  fake.calls.clear();
  fake.step(Action::split_config_state({1}, {3, 4}));
  EXPECT_EQ(fake.calls, (Calls{"inject 1 config {1} 0",
                               "inject 3 config {3,4} 0",
                               "inject 4 config {3,4} 0"}));
}

// Identifiers are never reused: every reboot and add mints the next one.
TEST(Interpreter, RebootAndAddMintFreshIds) {
  FakeFabric fake(three_nodes());
  fake.step(Action::reboot({2, 3}));
  fake.step(Action::add_nodes(1));
  fake.step(Action::reboot({4}));
  fake.step(Action::reboot({1}));
  EXPECT_EQ(fake.calls,
            (Calls{"crash 2", "spawn 4", "crash 3", "spawn 5", "spawn 6",
                   "crash 4", "spawn 7", "crash 1", "spawn 8"}));
  EXPECT_EQ(fake.alive_set, (IdSet{5, 6, 7, 8}));
}

// A state fault draws its ids from the alive set: a crashed id is out, a
// later joiner in.
TEST(Interpreter, FaultUniverseIsTheAliveSet) {
  FakeFabric fake(three_nodes());
  fake.step(Action::crash({3}));
  fake.step(Action::add_nodes(1));
  fake.calls.clear();
  fake.step(Action::corrupt_recsa({1}));
  fake.step(Action::plant_recma_flags({2, 4}, true, true));
  fake.step(Action::corrupt_recsa());
  EXPECT_EQ(fake.calls, (Calls{"inject 1 recsa {1,2,4} 0",
                               "inject 2 recma {1,2,4} 3",
                               "inject 4 recma {1,2,4} 3",
                               "inject 1 recsa {1,2,4} 0",
                               "inject 2 recsa {1,2,4} 0",
                               "inject 4 recsa {1,2,4} 0"}));
}

TEST(Interpreter, AwaitsRecordSuccessAndFailWithTheirMessage) {
  FakeFabric fake(three_nodes());
  fake.all_converged = true;
  fake.step(Action::await_converged(kSec));
  fake.step(Action::await_vs_stable(kSec));
  fake.step(Action::await_participants({1, 2}, kSec));
  fake.step(Action::await_config_equals_alive(kSec));
  EXPECT_FALSE(fake.failed()) << fake.failure();
  EXPECT_EQ(fake.recorded(TraceKind::kConverged), 1u);
  EXPECT_EQ(fake.recorded(TraceKind::kVsStable), 1u);
  fake.all_converged = false;
  fake.step(Action::await_config_equals_alive(kSec));
  EXPECT_EQ(fake.failure(),
            "await_config_equals_alive: configuration did not catch up with "
            "the alive set");
}

TEST(Interpreter, AwaitQuiescentDrainsOnlyAfterCrashAll) {
  FakeFabric fake(three_nodes());
  fake.step(Action::await_quiescent(kSec));
  ASSERT_EQ(fake.finish().violations.size(), 1u);

  FakeFabric drained(three_nodes());
  drained.step(Action::crash_all());
  drained.calls.clear();
  drained.step(Action::await_quiescent(kSec));
  EXPECT_EQ(drained.calls, (Calls{"drain 1000000"}));
  EXPECT_EQ(drained.recorded(TraceKind::kQuiescent), 1u);
  EXPECT_TRUE(drained.finish().ok);
}

}  // namespace
}  // namespace ssr::scenario
