// SweepRunner determinism property: a parallel sweep is the same computation
// as a serial one. jobs=1 and jobs=4 over 4 scenarios (one of them a client
// workload over the VS layer) × seeds 1..20 must agree on every
// per-(scenario, seed) trace hash, event count and end time, and both must
// report in submission order. On the same jobs, a (spec, seed) pair names
// exactly one execution: the seeds of a scenario give distinct hashes, and
// a sweep job matches a direct run of its pair. Plus unit coverage of
// add()/add_seed_range(), the merged summary and how the pool spreads jobs.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "scenario/library.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"

namespace ssr::scenario {
namespace {

constexpr const char* kScenarios[] = {"majority-split", "epoch-rollover",
                                      "garbage-channel-recovery",
                                      "vs-workload"};
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

  // Divergence: the seeds of one scenario give pairwise distinct executions
  // (the channel delays alone reshuffle every delivery, and a 64-bit hash
  // collision across 20 seeds would itself be a red flag).
  std::map<std::string, std::set<std::uint64_t>> hashes;
  for (const ScenarioResult& r : parallel.results) {
    EXPECT_TRUE(hashes[r.name].insert(r.trace_hash).second)
        << r.name << " seed " << r.seed << " repeats another seed's hash";
  }

  // Stability: a sweep job and a direct serial run of its (spec, seed) pair
  // are the same execution. Results are in submission order: scenario-major,
  // then seed.
  const std::uint64_t seeds = kLastSeed - kFirstSeed + 1;
  for (std::size_t k = 0; k < std::size(kScenarios); ++k) {
    const ScenarioSpec spec = *find_scenario(kScenarios[k]);
    for (std::uint64_t seed :
         {kFirstSeed, (kFirstSeed + kLastSeed) / 2, kLastSeed}) {
      const ScenarioResult again = run_scenario(spec, seed);
      const ScenarioResult& swept =
          parallel.results[k * seeds + (seed - kFirstSeed)];
      ASSERT_EQ(swept.seed, seed);
      EXPECT_EQ(swept.trace_hash, again.trace_hash)
          << kScenarios[k] << " seed " << seed;
      EXPECT_EQ(swept.trace_events, again.trace_events);
      EXPECT_EQ(swept.sim_time, again.sim_time);
      EXPECT_EQ(swept.sched_events, again.sched_events);
    }
  }
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

// Workers claim jobs one at a time, so every worker takes a share: the
// workers' total thread CPU is at least 1.5x the slowest worker's at 2
// jobs and 2.0x at 4, both from the same run. This checks how evenly the
// pool spreads the jobs, not whether a job costs more CPU when workers run
// side by side; no test gates that (README, "Parallel multi-world sweeps").
TEST(SweepRunner, PoolSpreadsJobsAcrossWorkers) {
  const ScenarioSpec spec = *find_scenario("majority-split");
  for (const auto& [jobs, floor] : {std::pair<std::size_t, double>{2, 1.5},
                                    std::pair<std::size_t, double>{4, 2.0}}) {
    SweepOptions opt;
    opt.jobs = jobs;
    SweepRunner runner(opt);
    runner.add_seed_range(spec, 100, 115);
    const SweepSummary s = runner.run();
    EXPECT_TRUE(s.ok);
    if (s.max_worker_cpu_sec == 0) GTEST_SKIP() << "no per-thread CPU clock";
    EXPECT_GE(s.total_worker_cpu_sec / s.max_worker_cpu_sec, floor)
        << jobs << " jobs";
  }
}

}  // namespace
}  // namespace ssr::scenario
