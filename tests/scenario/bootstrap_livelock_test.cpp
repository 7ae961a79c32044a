// Bootstrap livelock regressions. A clean-ack that the channel duplicates
// could end a token link's cleaning one probe before its receiver lifted the
// quarantine; the receiver then discarded every data frame of that link
// forever, one node stayed at ⊥ and the others reset and reinstalled every
// tick. These seeds of the converge-only spec (and one of the library's
// bootstrap spec) reached that state; the sweep guards the spec as a whole,
// since a timing change can move the bad interleaving to other seeds.
#include <gtest/gtest.h>

#include "scenario/library.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"

namespace ssr::scenario {
namespace {

/// 5 nodes boot from the all-joiner state with VS off and must agree on one
/// configuration within 60 virtual seconds.
ScenarioSpec converge_only() {
  ScenarioSpec s;
  s.name = "converge-only";
  s.initial_nodes = 5;
  s.phases = {{"converge", {Action::await_converged(60 * kSec)}}};
  return s;
}

class ConvergeOnlySeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvergeOnlySeed, Converges) {
  const ScenarioResult r = run_scenario(converge_only(), GetParam());
  EXPECT_TRUE(r.ok) << r.summary();
}

INSTANTIATE_TEST_SUITE_P(LivelockSeeds, ConvergeOnlySeed,
                         ::testing::Values(6804, 7699, 10061, 16157, 16563,
                                           24580, 28855));

TEST(BootstrapLivelock, LibraryBootstrapSeed) {
  auto spec = find_scenario("bootstrap");
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult r = run_scenario(*spec, 17392678190439483198ULL);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(BootstrapLivelock, ConvergeOnlySweepHasNoFailures) {
  SweepOptions opt;
  opt.jobs = 4;
  SweepRunner runner(opt);
  runner.add_seed_range(converge_only(), 1, 2000);
  const SweepSummary sweep = runner.run();
  ASSERT_EQ(sweep.results.size(), 2000u);
  EXPECT_EQ(sweep.failed, 0u);
  for (const ScenarioResult& r : sweep.results) {
    EXPECT_TRUE(r.ok) << r.summary();
  }
}

}  // namespace
}  // namespace ssr::scenario
