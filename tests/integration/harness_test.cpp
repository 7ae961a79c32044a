// Tests of the harness itself: the invariant monitors that every other
// suite relies on, and whole-world determinism (same seed ⇒
// identical executions), which the reproducibility of every experiment
// depends on.
#include <gtest/gtest.h>

#include "harness/fault_injector.hpp"
#include "harness/monitors.hpp"
#include "harness/world.hpp"

namespace ssr::harness {
namespace {

counter::Counter mk_counter(NodeId creator, std::uint64_t seqn, NodeId wid) {
  counter::Counter c;
  c.lbl.creator = creator;
  c.lbl.sting = 1;
  c.seqn = seqn;
  c.wid = wid;
  return c;
}

TEST(CounterOrderMonitorTest, DetectsRealTimeViolations) {
  CounterOrderMonitor m;
  // op A finished at t=10, op B started at t=20 — B must be greater.
  m.record(0, 10, mk_counter(1, 5, 1));
  m.record(20, 30, mk_counter(1, 4, 1));  // smaller! violation
  EXPECT_EQ(m.completed(), 2u);
  EXPECT_EQ(m.violations(), 1u);
}

TEST(CounterOrderMonitorTest, ConcurrentOpsNotConstrained) {
  CounterOrderMonitor m;
  // Overlapping in time: no real-time order, no violation either way.
  m.record(0, 100, mk_counter(1, 5, 1));
  m.record(50, 60, mk_counter(1, 4, 1));
  EXPECT_EQ(m.violations(), 0u);
}

TEST(CounterOrderMonitorTest, OrderedOpsPass) {
  CounterOrderMonitor m;
  m.record(0, 10, mk_counter(1, 1, 1));
  m.record(20, 30, mk_counter(1, 2, 2));
  m.record(40, 50, mk_counter(2, 0, 1));  // bigger label
  EXPECT_EQ(m.violations(), 0u);
}

TEST(ConfigHistoryMonitorTest, CountsEventsSince) {
  WorldConfig cfg;
  cfg.seed = 71;
  cfg.node.enable_vs = false;
  World w(cfg);
  ConfigHistoryMonitor m;
  for (NodeId id = 1; id <= 3; ++id) w.add_node(id);
  m.attach(w);
  ASSERT_TRUE(w.run_until_converged(180 * kSec).has_value());
  EXPECT_GT(m.events().size(), 0u);  // bootstrap produced config changes
  const SimTime now = w.scheduler().now();
  w.run_for(60 * kSec);
  EXPECT_EQ(m.events_since(now), 0u);  // quiet afterwards
}

TEST(WorldTest, AliveTracksCrashes) {
  WorldConfig cfg;
  cfg.seed = 73;
  cfg.node.enable_vs = false;
  World w(cfg);
  for (NodeId id = 1; id <= 3; ++id) w.add_node(id);
  EXPECT_EQ(w.alive(), (IdSet{1, 2, 3}));
  w.crash(2);
  EXPECT_EQ(w.alive(), (IdSet{1, 3}));
  EXPECT_TRUE(w.node(2).crashed());
}

TEST(WorldTest, ConvergedFalseWhileDiverged) {
  WorldConfig cfg;
  cfg.seed = 75;
  cfg.node.enable_vs = false;
  World w(cfg);
  for (NodeId id = 1; id <= 4; ++id) w.add_node(id);
  ASSERT_TRUE(w.run_until_converged(180 * kSec).has_value());
  FaultInjector fi(w, 750);
  fi.split_config(IdSet{1, 2}, IdSet{3, 4});
  EXPECT_FALSE(w.converged());
  EXPECT_FALSE(w.common_config().has_value());
}

// Reproducibility: identical seeds produce byte-identical convergence
// behaviour — the foundation of every experiment in EXPERIMENTS.md.
TEST(WorldTest, SameSeedSameExecution) {
  auto run = [](std::uint64_t seed) {
    WorldConfig cfg;
    cfg.seed = seed;
    cfg.node.enable_vs = false;
    World w(cfg);
    ConfigHistoryMonitor m;
    for (NodeId id = 1; id <= 4; ++id) w.add_node(id);
    m.attach(w);
    w.run_for(90 * kSec);
    w.node(1).recsa().estab(IdSet{1, 2, 3});
    w.run_for(90 * kSec);
    std::vector<std::pair<SimTime, NodeId>> trace;
    for (const auto& e : m.events()) trace.emplace_back(e.when, e.node);
    return std::make_pair(trace, w.scheduler().events_executed());
  };
  const auto a = run(12345);
  const auto b = run(12345);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  const auto c = run(54321);
  EXPECT_NE(a.second, c.second);  // different seed, different execution
}

}  // namespace
}  // namespace ssr::harness
