#include <gtest/gtest.h>

#include <map>
#include <optional>

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
// Last re-pinned when token links began pacing their retransmissions to the
// channel (LinkConfig::for_channel). A scenario absent from the table (i.e.
// added later) only skips the pin, not the run.
std::optional<std::uint64_t> golden_hash(const std::string& name) {
  static const std::map<std::string, std::uint64_t> kGolden = {
      {"bootstrap", 0x5f189dc6a93b8a13ULL},
      {"rolling-churn", 0xbef0837f555a21a5ULL},
      {"majority-split", 0x3bc37edd0f5bafa2ULL},
      {"flood-of-joiners", 0xbd14b1371137e954ULL},
      {"epoch-rollover", 0x65b22d81135612acULL},
      {"garbage-channel-recovery", 0x1b129f8db19c0ad3ULL},
      {"partition-heal", 0x283af48d8876f7bdULL},
      {"silent-after-convergence", 0x476699af514aa9e5ULL},
      {"transient-blast", 0xf9e07ca7eefcf6eeULL},
      {"vs-workload", 0x7c359a907b3aa064ULL},
  };
  auto it = kGolden.find(name);
  if (it == kGolden.end()) return std::nullopt;
  return it->second;
}

// Every library scenario runs clean: awaits met, zero invariant violations,
// and (for the pinned set) a byte-identical trace to the golden record.
// Parameterized over library() itself so a newly added scenario is covered
// automatically.
class RunsClean : public ::testing::TestWithParam<std::string> {};

TEST_P(RunsClean, ZeroViolationsAndGoldenTrace) {
  auto spec = find_scenario(GetParam());
  ASSERT_TRUE(spec.has_value()) << GetParam();
  const ScenarioResult r = run_scenario(*spec, 7);
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_TRUE(r.violations.empty()) << r.summary();
  EXPECT_TRUE(r.failure.empty()) << r.summary();
  EXPECT_GT(r.trace_events, 0u);
  if (auto hash = golden_hash(GetParam())) {
    EXPECT_EQ(r.trace_hash, *hash)
        << "trace drifted from the pinned seed-7 execution: "
        << r.summary();
  }
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
