// scenario::Fuzzer — generation purity, validity of generated specs, the
// serial-vs-parallel determinism property (extending the PR 9 sweep test to
// the fuzz report), the greedy shrinker on a known-bad fixture, and the
// adversarial scheduler's per-seed determinism.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "scenario/fuzz.hpp"
#include "scenario/library.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec_io.hpp"

namespace ssr::scenario {
namespace {

using A = Action;

TEST(Fuzzer, GenerationIsSeedPure) {
  FuzzOptions opt;
  opt.seed = 20160711;  // middleware'16 nod
  const Fuzzer a(opt), b(opt);
  std::set<std::string> renderings;
  std::string campaign;
  for (std::uint64_t i = 0; i < 16; ++i) {
    // Same (seed, index) => byte-identical spec and identical run seed.
    const std::string spec = spec_to_string(a.generate(i));
    EXPECT_EQ(spec, spec_to_string(b.generate(i))) << "case " << i;
    EXPECT_EQ(a.run_seed(i), b.run_seed(i)) << "case " << i;
    renderings.insert(spec);
    campaign += spec;
  }
  // Different indices actually explore different shapes.
  EXPECT_EQ(renderings.size(), 16u);
  // The CI seed block is pinned: a library entry the splice may not draw
  // from (a multi-fleet spec) or a new action kind must not move a fixed-
  // seed campaign, or every recorded counterexample stops reproducing.
  EXPECT_EQ(TraceRecorder::digest(campaign), 0xd38284005f4106c4ULL);

  FuzzOptions other = opt;
  other.seed = opt.seed + 1;
  EXPECT_NE(spec_to_string(Fuzzer(other).generate(0)),
            spec_to_string(a.generate(0)));
}

TEST(Fuzzer, GeneratedSpecsStayInsideTheValidityModel) {
  FuzzOptions opt;
  opt.seed = 99;
  const Fuzzer fuzzer(opt);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const ScenarioSpec spec = fuzzer.generate(i);
    EXPECT_TRUE(Fuzzer::spec_references_valid(spec)) << spec.name;
    ASSERT_GE(spec.phases.size(), 2u) << spec.name;
    // Every generated run starts from a converged cohort and ends with a
    // settle phase that heals partitions before the final await.
    EXPECT_EQ(spec.phases.front().actions.front().kind,
              ActionKind::kAwaitConverged);
    EXPECT_EQ(spec.phases.back().actions.front().kind,
              ActionKind::kHealNetwork);
    EXPECT_GE(spec.initial_nodes, 3u);
    EXPECT_LE(spec.initial_nodes, 7u);
    // And round-trips through the counterexample format.
    std::istringstream in(spec_to_string(spec));
    const auto loaded = load_spec(in);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(spec_to_string(*loaded), spec_to_string(spec));
  }
}

TEST(Fuzzer, SpecReferencesValidTracksMintedIds) {
  ScenarioSpec s;
  s.name = "v";
  s.initial_nodes = 3;
  s.phases.push_back(Phase{"p", {A::crash({3})}});
  EXPECT_TRUE(Fuzzer::spec_references_valid(s));

  s.phases[0].actions = {A::crash({4})};  // never created
  EXPECT_FALSE(Fuzzer::spec_references_valid(s));

  s.phases[0].actions = {A::add_nodes(1), A::crash({4})};  // created first
  EXPECT_TRUE(Fuzzer::spec_references_valid(s));

  s.phases[0].actions = {A::crash({4}), A::add_nodes(1)};  // created late
  EXPECT_FALSE(Fuzzer::spec_references_valid(s));

  s.phases[0].actions = {A::reboot({2}), A::crash({4})};  // reboot mints 4
  EXPECT_TRUE(Fuzzer::spec_references_valid(s));

  s.phases[0].actions = {A::split_network({1, 2}, {3, 9})};
  EXPECT_FALSE(Fuzzer::spec_references_valid(s));  // group_b checked too

  s.phases[0].actions = {A::crash({0})};
  EXPECT_FALSE(Fuzzer::spec_references_valid(s));  // ids are 1-based
}

TEST(Fuzzer, FailureSignatureRanksViolationsFirst) {
  ScenarioResult r;
  r.ok = true;
  EXPECT_EQ(Fuzzer::failure_signature(r), "");

  r.ok = false;
  r.failure = "await_converged: no convergence within the time budget";
  EXPECT_EQ(Fuzzer::failure_signature(r), "failure:" + r.failure);

  r.violations.push_back({"counter-order", "details vary per run"});
  EXPECT_EQ(Fuzzer::failure_signature(r), "violation:counter-order");
}

/// The known-bad fixture: await_quiescent without crash_all is a guaranteed
/// "silence" invariant violation, padded with noise actions the shrinker
/// must strip. The minimum that still fails with the same signature is one
/// phase holding the await alone at the 3-node floor.
TEST(Fuzzer, ShrinkerReducesKnownBadFixtureToMinimum) {
  ScenarioSpec spec;
  spec.name = "known-bad";
  spec.initial_nodes = 5;
  spec.phases.push_back(Phase{"noise",
                              {A::run_for(5 * kSec), A::garbage_channels(2),
                               A::corrupt_fd({1, 4}), A::run_for(3 * kSec)}});
  spec.phases.push_back(Phase{"bad", {A::await_quiescent(10 * kSec)}});
  spec.phases.push_back(Phase{"tail-noise", {A::run_for(2 * kSec)}});

  const std::uint64_t seed = 3;
  const ScenarioResult before = run_scenario(spec, seed);
  ASSERT_FALSE(before.ok);
  const std::string signature = Fuzzer::failure_signature(before);
  ASSERT_EQ(signature, "violation:silence");

  std::size_t runs = 0;
  const ScenarioSpec shrunk =
      Fuzzer::shrink(spec, seed, signature, /*max_runs=*/200, &runs);

  ASSERT_EQ(shrunk.phases.size(), 1u);
  ASSERT_EQ(shrunk.phases[0].actions.size(), 1u);
  EXPECT_EQ(shrunk.phases[0].actions[0].kind, ActionKind::kAwaitQuiescent);
  EXPECT_EQ(shrunk.initial_nodes, 3u);  // node floor reached
  EXPECT_GT(runs, 0u);
  EXPECT_LE(runs, 200u);

  // The shrunk repro still fails the same way.
  EXPECT_EQ(Fuzzer::failure_signature(run_scenario(shrunk, seed)), signature);
}

TEST(Fuzzer, ShrinkPreservesFailureSignatureClass) {
  // A spec that fails an await (not a violation): partition the cohort,
  // bridge the failure detector's blind window so each side has already
  // reconfigured to its own half, then demand global convergence without
  // ever healing — the sides can never agree. Shrinking must not morph
  // this into a different failure class.
  ScenarioSpec spec;
  spec.name = "missed-await";
  spec.initial_nodes = 4;
  spec.phases.push_back(Phase{"pad", {A::run_for(2 * kSec)}});
  spec.phases.push_back(Phase{"overload",
                              {A::split_network({1, 2}, {3, 4}),
                               A::run_for(30 * kSec),
                               A::await_converged(60 * kSec)}});

  const std::uint64_t seed = 11;
  const ScenarioResult before = run_scenario(spec, seed);
  ASSERT_FALSE(before.ok);
  const std::string signature = Fuzzer::failure_signature(before);
  ASSERT_EQ(signature.rfind("failure:await_converged", 0), 0u) << signature;

  const ScenarioSpec shrunk = Fuzzer::shrink(spec, seed, signature, 100);
  EXPECT_LT(shrunk.phases.size(), spec.phases.size());
  EXPECT_EQ(Fuzzer::failure_signature(run_scenario(shrunk, seed)), signature);
}

/// The PR 9 serial-vs-parallel sweep property, extended to the fuzz
/// report: one campaign seed names one report, byte-identical at any
/// --jobs count. Seed 9's first two cases are cheap passing runs, so the
/// lap stays fast; shrinking is disabled because it is serial anyway.
TEST(Fuzzer, ReportIsIdenticalAtAnyJobsCount) {
  FuzzOptions opt;
  opt.seed = 9;
  opt.cases = 2;
  opt.max_shrink_runs = 0;

  opt.jobs = 1;
  Fuzzer serial(opt);
  const FuzzReport a = serial.run();

  opt.jobs = 2;
  Fuzzer parallel(opt);
  const FuzzReport b = parallel.run();

  ASSERT_EQ(a.cases_run, b.cases_run);
  EXPECT_EQ(a.failures, b.failures);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].ok, b.results[i].ok) << "case " << i;
    EXPECT_EQ(a.results[i].failure, b.results[i].failure) << "case " << i;
    EXPECT_EQ(a.results[i].trace_hash, b.results[i].trace_hash)
        << "case " << i;
    EXPECT_EQ(a.results[i].sched_events, b.results[i].sched_events)
        << "case " << i;
  }
  ASSERT_EQ(a.counterexamples.size(), b.counterexamples.size());
  for (std::size_t i = 0; i < a.counterexamples.size(); ++i) {
    EXPECT_EQ(a.counterexamples[i].signature, b.counterexamples[i].signature);
    EXPECT_EQ(spec_to_string(a.counterexamples[i].spec),
              spec_to_string(b.counterexamples[i].spec));
  }
}

TEST(Adversary, SameSeedSameTraceDifferentFromFair) {
  auto spec = find_scenario("partition-heal");
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult fair = run_scenario(*spec, 7);
  ASSERT_TRUE(fair.ok);

  spec->adversarial = true;
  const ScenarioResult adv1 = run_scenario(*spec, 7);
  const ScenarioResult adv2 = run_scenario(*spec, 7);
  // Worst-case scheduling is still a pure function of (spec, seed)...
  EXPECT_EQ(adv1.trace_hash, adv2.trace_hash);
  EXPECT_EQ(adv1.sched_events, adv2.sched_events);
  EXPECT_EQ(adv1.ok, adv2.ok);
  // ...and actually changes the delivery schedule.
  EXPECT_NE(adv1.trace_hash, fair.trace_hash);
  // Fair communication still holds inside the delay bounds: the paper's
  // liveness prerequisite, so the run must still converge.
  EXPECT_TRUE(adv1.ok) << adv1.failure;
}

}  // namespace
}  // namespace ssr::scenario
