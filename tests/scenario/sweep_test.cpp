// SweepRunner determinism property: a parallel sweep is the same computation
// as a serial one. jobs=1 and jobs=4 over 4 scenarios (one of them three
// lockstep fleets) × seeds 1..20 must agree on every per-(scenario, seed)
// trace hash, event count and end time, and both must report in submission
// order. Plus unit coverage of add()/add_seed_range() and the merged
// summary.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/library.hpp"
#include "scenario/sweep.hpp"

namespace ssr::scenario {
namespace {

constexpr const char* kScenarios[] = {"majority-split", "epoch-rollover",
                                      "garbage-channel-recovery",
                                      "sharded-map-growth"};
constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kLastSeed = 20;

SweepSummary sweep_at(std::size_t jobs) {
  SweepOptions opt;
  opt.jobs = jobs;
  SweepRunner runner(opt);
  for (const char* name : kScenarios) {
    auto spec = find_scenario(name);
    EXPECT_TRUE(spec.has_value()) << name;
    runner.add_seed_range(*spec, kFirstSeed, kLastSeed);
  }
  EXPECT_EQ(runner.job_count(),
            std::size(kScenarios) * (kLastSeed - kFirstSeed + 1));
  return runner.run();
}

TEST(SweepRunner, ParallelIsByteIdenticalToSerial) {
  const SweepSummary serial = sweep_at(1);
  const SweepSummary parallel = sweep_at(4);

  ASSERT_EQ(serial.results.size(), parallel.results.size());
  EXPECT_TRUE(serial.ok);
  EXPECT_TRUE(parallel.ok);

  // Element-wise equality in submission order: this checks both halves of
  // the contract at once — identical per-job executions AND deterministic
  // report order regardless of worker finish order.
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    const ScenarioResult& s = serial.results[i];
    const ScenarioResult& p = parallel.results[i];
    EXPECT_EQ(s.name, p.name) << "job " << i;
    EXPECT_EQ(s.seed, p.seed) << "job " << i;
    EXPECT_EQ(s.trace_hash, p.trace_hash)
        << "job " << i << " (" << s.name << " seed " << s.seed << ")";
    EXPECT_EQ(s.trace_events, p.trace_events) << "job " << i;
    EXPECT_EQ(s.sim_time, p.sim_time) << "job " << i;
    EXPECT_EQ(s.sched_events, p.sched_events) << "job " << i;
    EXPECT_EQ(s.ok, p.ok) << "job " << i;
  }

  // The merged latency histograms aggregate the same per-job data, so the
  // sweep-level percentiles agree too.
  EXPECT_EQ(serial.op_latency.count(), parallel.op_latency.count());
  EXPECT_EQ(serial.op_latency.percentile(50),
            parallel.op_latency.percentile(50));
  EXPECT_EQ(serial.op_latency.percentile(99),
            parallel.op_latency.percentile(99));
}

TEST(SweepRunner, SubmissionOrderIsReportOrder) {
  auto spec_a = find_scenario("majority-split");
  auto spec_b = find_scenario("epoch-rollover");
  ASSERT_TRUE(spec_a && spec_b);

  SweepOptions opt;
  opt.jobs = 4;
  SweepRunner runner(opt);
  // Interleave specs and seeds out of any natural sort order.
  runner.add(*spec_b, 9);
  runner.add(*spec_a, 3);
  runner.add(*spec_b, 1);
  runner.add(*spec_a, 7);
  ASSERT_EQ(runner.job_count(), 4u);

  const SweepSummary s = runner.run();
  ASSERT_EQ(s.results.size(), 4u);
  EXPECT_EQ(s.results[0].name, "epoch-rollover");
  EXPECT_EQ(s.results[0].seed, 9u);
  EXPECT_EQ(s.results[1].name, "majority-split");
  EXPECT_EQ(s.results[1].seed, 3u);
  EXPECT_EQ(s.results[2].name, "epoch-rollover");
  EXPECT_EQ(s.results[2].seed, 1u);
  EXPECT_EQ(s.results[3].name, "majority-split");
  EXPECT_EQ(s.results[3].seed, 7u);
}

TEST(SweepRunner, MoreJobsThanWorkNeededStillRunsClean) {
  auto spec = find_scenario("bootstrap");
  ASSERT_TRUE(spec.has_value());
  SweepOptions opt;
  opt.jobs = 8;  // more workers than the 2 jobs below
  SweepRunner runner(opt);
  runner.add_seed_range(*spec, 5, 6);
  const SweepSummary s = runner.run();
  EXPECT_TRUE(s.ok);
  EXPECT_EQ(s.results.size(), 2u);
  EXPECT_EQ(s.failed, 0u);
}

TEST(SweepRunner, SummaryAggregatesCountsAndFailures) {
  auto spec = find_scenario("vs-workload");
  ASSERT_TRUE(spec.has_value());
  SweepOptions opt;
  opt.jobs = 2;
  SweepRunner runner(opt);
  runner.add_seed_range(*spec, 1, 4);
  const SweepSummary s = runner.run();
  ASSERT_EQ(s.results.size(), 4u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_TRUE(s.ok);
  // Merged histogram count equals the sum over per-job histograms.
  std::uint64_t total = 0;
  for (const ScenarioResult& r : s.results) total += r.op_latency.count();
  EXPECT_EQ(s.op_latency.count(), total);
  // The one-line rendering mentions the run count.
  EXPECT_NE(s.summary().find("4 runs"), std::string::npos) << s.summary();
}

}  // namespace
}  // namespace ssr::scenario
