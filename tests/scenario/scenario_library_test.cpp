#include <gtest/gtest.h>

#include <map>

#include "scenario/library.hpp"
#include "scenario/runner.hpp"

namespace ssr::scenario {
namespace {

TEST(ScenarioLibrary, HasAtLeastEightScenarios) {
  EXPECT_GE(library().size(), 8u);
  for (const ScenarioSpec& s : library()) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.phases.empty()) << s.name;
    EXPECT_TRUE(find_scenario(s.name).has_value()) << s.name;
  }
}

TEST(ScenarioLibrary, NamesAreUnique) {
  const auto& specs = library();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      EXPECT_NE(specs[i].name, specs[j].name);
    }
  }
}

// Replay pins: `scenario_runner --all --seed 7` must reproduce these trace
// hashes byte for byte, so any drift means a change moved an execution. A
// refactor must leave them alone; a protocol change that moves executions
// on purpose re-pins them once, in a commit that names the rule it changed.
// Last re-pinned when token links began answering a data copy with one
// kDataAck that also carries a copy of the reverse link's frame
// (LinkConfig::piggyback_acks). Every library scenario has a pin: a new one
// fails here until its hash is added.
const std::map<std::string, std::uint64_t>& golden_hashes() {
  static const std::map<std::string, std::uint64_t> kGolden = {
      {"bootstrap", 0x4ebdea12a8379af0ULL},
      {"rolling-churn", 0xb01cd1bb7e53a2bbULL},
      {"majority-split", 0xb353b50b286b969dULL},
      {"flood-of-joiners", 0xafb84e2f8937ee90ULL},
      {"epoch-rollover", 0x0a878df584ccd7d9ULL},
      {"garbage-channel-recovery", 0x985a91344baa2563ULL},
      {"partition-heal", 0xb97aa6013113fffdULL},
      {"silent-after-convergence", 0xa00578ca7c5e2e72ULL},
      {"transient-blast", 0x247439b9253e9fe4ULL},
      {"crash-respawn", 0xafb491e9981025e3ULL},
      {"stall-resume", 0xb6faba215386c93bULL},
      {"pause-through-heal", 0xa31cc34fe68719b3ULL},
      {"joiner-adoption", 0x46f5e2be39a8dec3ULL},
      {"crash-then-stable", 0x01f6d5584a9e0b65ULL},
      {"adversarial-bitflips", 0x10058d90dcbbc23fULL},
      {"vs-workload", 0x190e2b3323f16decULL},
  };
  return kGolden;
}

// Every library scenario runs clean: awaits met, zero invariant violations,
// and a byte-identical trace to the golden record. Parameterized over
// library() itself so a newly added scenario is covered automatically.
class RunsClean : public ::testing::TestWithParam<std::string> {};

TEST_P(RunsClean, ZeroViolationsAndGoldenTrace) {
  auto spec = find_scenario(GetParam());
  ASSERT_TRUE(spec.has_value()) << GetParam();
  const ScenarioResult r = run_scenario(*spec, 7);
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_TRUE(r.violations.empty()) << r.summary();
  EXPECT_TRUE(r.failure.empty()) << r.summary();
  EXPECT_GT(r.trace_events, 0u);
  const auto pin = golden_hashes().find(GetParam());
  ASSERT_NE(pin, golden_hashes().end())
      << "no pinned seed-7 hash; this run: " << r.summary();
  EXPECT_EQ(r.trace_hash, pin->second)
      << "trace drifted from the pinned seed-7 execution: " << r.summary();
}

std::vector<std::string> library_names() {
  std::vector<std::string> out;
  for (const ScenarioSpec& s : library()) out.push_back(s.name);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Library, RunsClean,
                         ::testing::ValuesIn(library_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace ssr::scenario
