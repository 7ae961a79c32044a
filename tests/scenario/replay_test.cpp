#include <gtest/gtest.h>

#include "scenario/library.hpp"
#include "scenario/runner.hpp"

namespace ssr::scenario {
namespace {

// Replay determinism: a (spec, seed) pair names exactly one execution, so
// running it twice must produce byte-identical traces — same hash, same
// event count, same virtual end time. Different seeds must diverge (the
// channel delays alone reshuffle every delivery).
class Replay : public ::testing::TestWithParam<const char*> {};

TEST_P(Replay, SameSeedSameTraceHash) {
  auto spec = find_scenario(GetParam());
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult a = run_scenario(*spec, 97);
  // Run `a` leaves the thread's buffer pool warm and the process allocator
  // in a different state; run `b` must be byte-identical regardless —
  // recycling is invisible to the execution.
  const ScenarioResult b = run_scenario(*spec, 97);
  EXPECT_TRUE(a.ok) << a.summary();
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_EQ(a.sim_time, b.sim_time);
  // The event stream itself is equal, not just the protocol trace: same
  // scheduler event count and same buffer demand on both laps. (How many
  // acquires the freelist can serve depends on pool temperature, so only
  // the demand is pinned.)
  EXPECT_EQ(a.sched_events, b.sched_events);
  EXPECT_EQ(a.pool_acquired, b.pool_acquired);
}

TEST_P(Replay, DifferentSeedsDiverge) {
  auto spec = find_scenario(GetParam());
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult a = run_scenario(*spec, 97);
  const ScenarioResult c = run_scenario(*spec, 98);
  EXPECT_NE(a.trace_hash, c.trace_hash);
}

// A deliberate subset of the library (replay runs every scenario 3×; the
// full set would triple the suite's wall time for no extra signal — the
// determinism machinery is scenario-agnostic).
INSTANTIATE_TEST_SUITE_P(Library, Replay,
                         ::testing::Values("bootstrap",
                                           "silent-after-convergence",
                                           "majority-split"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace ssr::scenario
