// The multi-fleet library scenarios on the simulator: K quorum groups in one
// ScenarioSpec, one keyed workload routed across them, and the cross-fleet
// isolation ledger.
#include <gtest/gtest.h>

#include "scenario/library.hpp"
#include "scenario/runner.hpp"

namespace ssr::scenario {
namespace {

// Same (spec, seed) ⇒ bit-identical per-fleet executions: the K worlds run
// in deterministic lockstep and the router is pure, so every fleet's trace
// hash and scheduler event count replay exactly.
TEST(ShardedSim, RunsAreDeterministic) {
  const auto spec = find_scenario("sharded-bootstrap");
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult a = run_scenario(*spec, 7);
  const ScenarioResult b = run_scenario(*spec, 7);
  ASSERT_EQ(a.fleets.size(), b.fleets.size());
  for (std::size_t s = 0; s < a.fleets.size(); ++s) {
    EXPECT_EQ(a.fleets[s].trace_hash, b.fleets[s].trace_hash) << s;
    EXPECT_EQ(a.fleets[s].trace_events, b.fleets[s].trace_events) << s;
    EXPECT_EQ(a.fleets[s].sched_events, b.fleets[s].sched_events) << s;
  }
  EXPECT_EQ(a.ops_completed, b.ops_completed);

  // And fleets are actually independent streams: distinct seeds per fleet
  // mean distinct executions.
  EXPECT_NE(a.fleets[0].trace_hash, a.fleets[1].trace_hash);
}

TEST(ShardedSim, FaultInOneShardDoesNotStallOthers) {
  const auto spec = find_scenario("sharded-fault-isolation");
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult r = run_scenario(*spec, 7);
  EXPECT_TRUE(r.ok) << r.summary();
  // Every abort happened on the stalled shard; healthy shards served every
  // op routed at them, through a concurrent reconfiguration in shard 0.
  EXPECT_EQ(r.ops_aborted_healthy, 0u) << r.summary();
  EXPECT_GT(r.ops_completed, 0u);
  EXPECT_EQ(r.ops_completed + r.ops_aborted_faulted, r.ops_attempted);
}

TEST(ShardedSim, MapGrowthRedirectsKeysUnderLoad) {
  const auto spec = find_scenario("sharded-map-growth");
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult r = run_scenario(*spec, 7);
  EXPECT_TRUE(r.ok) << r.summary();
  // The epoch change landed mid-workload: at least one op was re-routed,
  // and the fresh shard actually served traffic.
  EXPECT_GT(r.ops_redirected, 0u) << r.summary();
  ASSERT_EQ(r.fleets.size(), 3u);
  EXPECT_GT(r.fleets[2].ops_completed, 0u)
      << "fresh shard never served a redirected key";
}

// A grow_map past the last fleet fails the run instead of routing keys to
// a fleet that does not exist.
TEST(ShardedSim, GrowthPastTheFleetsFailsTheRun) {
  ScenarioSpec spec;
  spec.name = "overgrown";
  spec.phases.push_back(Phase{"grow",
                              {
                                  Action::await_converged(60 * kSec),
                                  Action::grow_map(),
                                  Action::keyed_increments(2, "k"),
                              }});
  const ScenarioResult r = run_scenario(spec, 7);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure, "grow_map: the map already spans every fleet");
  EXPECT_EQ(r.ops_attempted, 0u);
}

}  // namespace
}  // namespace ssr::scenario
