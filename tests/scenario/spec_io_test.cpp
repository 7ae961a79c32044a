// scenario::spec_io — the fuzzer's counterexample interchange format.
// Round-trips must be exact (a saved repro that loads differently is no
// repro at all) and the rendering must be canonical: equal specs serialize
// byte-identically, which the fuzzer determinism test compares directly.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "scenario/library.hpp"
#include "scenario/spec_io.hpp"

namespace ssr::scenario {
namespace {

using A = Action;

ScenarioSpec kitchen_sink() {
  ScenarioSpec s;
  s.name = "kitchen-sink";
  s.description = "one action of every kind, every stack option set";
  s.initial_nodes = 5;
  s.enable_vs = true;
  s.aggressive_policy = true;
  s.adopt_joiners = true;
  s.corrupt_probability = 0.012345678901234567;
  s.exhaust_bound = 777;
  s.adversarial = true;
  s.phases.push_back(Phase{
      "everything",
      {
          A::add_nodes(2),
          A::crash({1}),
          A::reboot({2}),
          A::split_network({1, 3}, {4, 5}),
          A::heal_network(),
          A::corrupt_recsa({3, 4}),
          A::corrupt_fd({}),
          A::split_config_state({1, 3, 4}, {4, 5}),
          A::garbage_channels(3),
          A::plant_exhausted_counter({3}, 700),
          A::plant_recma_flags({4}, true, false),
          A::increment_burst(2, {3, 4}),
          A::shmem_write({3}, "reg with spaces", 42),
          A::shmem_read({4}, "x"),
          A::run_for(5 * kSec),
          A::await_converged(60 * kSec),
          A::await_vs_stable(60 * kSec),
          A::await_participants({3, 4}, 60 * kSec),
          A::await_config_equals_alive(60 * kSec),
          A::mark_stable(),
          A::pause_nodes({3}),
          A::resume_nodes({3}),
          A::crash_all(),
          A::await_quiescent(30 * kSec),
      }});
  return s;
}

TEST(SpecIo, RoundTripsEveryActionKind) {
  const ScenarioSpec original = kitchen_sink();
  const std::string text = spec_to_string(original);
  std::istringstream in(text);
  const auto loaded = load_spec(in);
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->name, original.name);
  EXPECT_EQ(loaded->description, original.description);
  EXPECT_EQ(loaded->initial_nodes, original.initial_nodes);
  EXPECT_EQ(loaded->enable_vs, original.enable_vs);
  EXPECT_EQ(loaded->aggressive_policy, original.aggressive_policy);
  EXPECT_EQ(loaded->adopt_joiners, original.adopt_joiners);
  EXPECT_EQ(loaded->corrupt_probability, original.corrupt_probability);
  EXPECT_EQ(loaded->exhaust_bound, original.exhaust_bound);
  EXPECT_EQ(loaded->adversarial, original.adversarial);
  ASSERT_EQ(loaded->phases.size(), original.phases.size());
  for (std::size_t p = 0; p < original.phases.size(); ++p) {
    EXPECT_EQ(loaded->phases[p].name, original.phases[p].name);
    const auto& la = loaded->phases[p].actions;
    const auto& oa = original.phases[p].actions;
    ASSERT_EQ(la.size(), oa.size());
    for (std::size_t i = 0; i < oa.size(); ++i) {
      EXPECT_EQ(la[i].kind, oa[i].kind) << "action " << i;
      EXPECT_EQ(la[i].targets, oa[i].targets) << "action " << i;
      EXPECT_EQ(la[i].group_b, oa[i].group_b) << "action " << i;
      EXPECT_EQ(la[i].n, oa[i].n) << "action " << i;
      EXPECT_EQ(la[i].duration, oa[i].duration) << "action " << i;
      EXPECT_EQ(la[i].reg, oa[i].reg) << "action " << i;
    }
  }

  // Canonical rendering: save(load(save(x))) == save(x), byte for byte.
  EXPECT_EQ(spec_to_string(*loaded), text);
}

TEST(SpecIo, LibrarySpecsRoundTrip) {
  for (const ScenarioSpec& spec : library()) {
    std::istringstream in(spec_to_string(spec));
    const auto loaded = load_spec(in);
    ASSERT_TRUE(loaded.has_value()) << spec.name;
    EXPECT_EQ(spec_to_string(*loaded), spec_to_string(spec)) << spec.name;
  }
}

TEST(SpecIo, ActionKindNamesRoundTrip) {
  for (int k = 1; k <= static_cast<int>(ActionKind::kResumeNodes); ++k) {
    const auto kind = static_cast<ActionKind>(k);
    const auto parsed = action_kind_from_string(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(action_kind_from_string("no-such-kind").has_value());
}

TEST(SpecIo, RejectsMalformedInput) {
  const auto rejects = [](const std::string& text) {
    std::istringstream in(text);
    return !load_spec(in).has_value();
  };
  const std::string good = spec_to_string(kitchen_sink());

  EXPECT_TRUE(rejects(""));                       // no magic
  EXPECT_TRUE(rejects("ssrspec v2\nname x\nnodes 3\nend\n"));  // bad magic
  EXPECT_TRUE(rejects("ssrspec v1\nname x\nend\n"));    // nodes missing
  EXPECT_TRUE(rejects("ssrspec v1\nnodes 3\nend\n"));   // name missing
  EXPECT_TRUE(rejects("ssrspec v1\nname x\nnodes 3\n"));  // no end
  EXPECT_TRUE(rejects("ssrspec v1\nname x\nnodes 3\nbogus 1\nend\n"));
  EXPECT_TRUE(rejects("ssrspec v1\nname x\nnodes 3\nend\ntrailing\n"));
  EXPECT_TRUE(rejects("ssrspec v1\nname x\nnodes 3\n"
                      "action run_for targets= group= n=0 duration=1 reg=\n"
                      "end\n"));  // action before any phase
  EXPECT_TRUE(rejects("ssrspec v1\nname x\nnodes 3\nphase p\n"
                      "action warp targets= group= n=0 duration=1 reg=\n"
                      "end\n"));  // unknown action kind
  EXPECT_TRUE(rejects("ssrspec v1\nname x\nnodes 3\nphase p\n"
                      "action run_for targets=1,,2 group= n=0 duration=1 "
                      "reg=\n"
                      "end\n"));  // malformed id list
  EXPECT_FALSE(rejects(good));

  // Ids are strict decimals that fit NodeId: no sign, no wrap-around.
  const auto with_targets = [](const std::string& ids) {
    return "ssrspec v1\nname x\nnodes 3\nphase p\naction crash targets=" +
           ids + " group= n=0 duration=0 reg=\nend\n";
  };
  EXPECT_FALSE(rejects(with_targets("1,2")));
  EXPECT_TRUE(rejects(with_targets("+1")));
  EXPECT_TRUE(rejects(with_targets("1,")));
  // 2^32 + 1 and 2^32 + 2 would wrap to 1 and 2 in 32 bits.
  EXPECT_TRUE(rejects(with_targets("4294967297")));
  EXPECT_TRUE(rejects(with_targets("1,4294967298")));

  // corrupt_prob is a probability: finite and in [0, 1].
  const auto with_prob = [](const std::string& p) {
    return "ssrspec v1\nname x\nnodes 3\ncorrupt_prob " + p + "\nend\n";
  };
  for (const char* p : {"0", "0.02", "1"}) {
    EXPECT_FALSE(rejects(with_prob(p))) << p;
  }
  for (const char* p : {"nan", "inf", "-1", "7"}) {
    EXPECT_TRUE(rejects(with_prob(p))) << p;
  }
}

// Multi-fleet specs are retired: a counterexample saved with the old
// syntax must fail to load, not run silently as one fleet.
TEST(SpecIo, RejectsTheRetiredMultiFleetSyntax) {
  const auto rejects = [](const std::string& text) {
    std::istringstream in(text);
    return !load_spec(in).has_value();
  };
  const std::string head = "ssrspec v1\nname x\nnodes 3\n";
  const std::string crash =
      "phase p\naction crash targets=1 group= n=0 duration=0 ";
  EXPECT_FALSE(rejects(head + crash + "reg=\nend\n"));
  EXPECT_TRUE(rejects(head + "shards 2\n" + crash + "reg=\nend\n"));
  EXPECT_TRUE(rejects(head + "map_shards 1\n" + crash + "reg=\nend\n"));
  EXPECT_TRUE(rejects(head + crash + "shard=1 reg=\nend\n"));
  EXPECT_TRUE(rejects(head +
                      "phase p\naction keyed_increments targets= group= "
                      "n=2 duration=0 reg=k\nend\n"));
  EXPECT_TRUE(rejects(head +
                      "phase p\naction grow_map targets= group= n=0 "
                      "duration=0 reg=\nend\n"));
}

TEST(SpecIo, RejectsNodesTheFleetNeverCreates) {
  const auto rejects = [](const std::string& text) {
    std::istringstream in(text);
    return !load_spec(in).has_value();
  };
  const std::string head = "ssrspec v1\nname x\nnodes 3\nphase p\n"
                           "action await_converged targets= group= n=0 "
                           "duration=60000000 reg=\n";
  // Both used to abort a runner: the simulator on an unknown node id, the
  // process backend on an uncaught std::out_of_range.
  EXPECT_TRUE(rejects(head +
                      "action await_participants targets=99 group= n=0 "
                      "duration=60000000 reg=\nend\n"));
  EXPECT_TRUE(rejects(head +
                      "action corrupt_recsa targets=99 group= n=0 "
                      "duration=0 reg=\nend\n"));
  EXPECT_FALSE(rejects(head +
                       "action corrupt_recsa targets=3 group= n=0 "
                       "duration=0 reg=\nend\n"));
  // An id exists once add_nodes has minted it, not before.
  const std::string crash_4 =
      "action crash targets=4 group= n=0 duration=0 reg=\n";
  EXPECT_TRUE(rejects(head + crash_4 + "end\n"));
  EXPECT_FALSE(rejects(head +
                       "action add_nodes targets= group= n=1 duration=0 "
                       "reg=\n" +
                       crash_4 + "end\n"));
}

// Every minted id is a whole protocol stack (a daemon under the process
// backend), so a spec file may mint at most the paper's N = 64 ids over its
// run: the initial cohort, each add_nodes unit and each reboot target.
// None of these specs is ever run.
TEST(SpecIo, BoundsTheIdsASpecMints) {
  const auto loads = [](const std::string& body) {
    std::istringstream in("ssrspec v1\nname x\n" + body);
    return load_spec(in).has_value();
  };
  const auto add = [](const std::string& n) {
    return "action add_nodes targets= group= n=" + n + " duration=0 reg=\n";
  };
  EXPECT_TRUE(loads("nodes 64\nend\n"));
  EXPECT_TRUE(loads("nodes 3\nphase p\n" + add("61") + "end\n"));
  EXPECT_FALSE(loads("nodes 65\nend\n"));
  EXPECT_FALSE(loads("nodes 3\nphase p\n" + add("62") + "end\n"));
  // A reboot mints one id per target.
  const std::string reboot =
      "action reboot targets=1,2 group= n=0 duration=0 reg=\n";
  EXPECT_TRUE(loads("nodes 3\nphase p\n" + add("59") + reboot + "end\n"));
  EXPECT_FALSE(loads("nodes 3\nphase p\n" + add("60") + reboot + "end\n"));
  // A count near 2^64 must not wrap the tally back under the bound.
  EXPECT_FALSE(
      loads("nodes 3\nphase p\n" + add("18446744073709551615") + "end\n"));
}

// Where `n=` counts actions to take, each costing work, a spec file may ask
// for at most kMaxSpecActionCount of them; where it is a value, any u64.
// None of these specs is ever run.
TEST(SpecIo, BoundsTheActionCountsASpecAsksFor) {
  const auto loads = [](const std::string& kind, std::uint64_t n) {
    std::istringstream in("ssrspec v1\nname x\nnodes 3\nphase p\naction " +
                          kind + " targets= group= n=" + std::to_string(n) +
                          " duration=0 reg=x\nend\n");
    return load_spec(in).has_value();
  };
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const char* kind : {"garbage_channels", "increment_burst"}) {
    EXPECT_TRUE(loads(kind, kMaxSpecActionCount)) << kind;
    EXPECT_FALSE(loads(kind, kMaxSpecActionCount + 1)) << kind;
    EXPECT_FALSE(loads(kind, kMax)) << kind;
  }
  EXPECT_TRUE(loads("shmem_write", kMax));
  // The library plants a counter at 2^20 + 5; any value loads.
  std::istringstream planted(
      "ssrspec v1\nname x\nnodes 3\nphase p\naction "
      "plant_exhausted_counter targets=1 group= n=18446744073709551615 "
      "duration=0 reg=\nend\n");
  EXPECT_TRUE(load_spec(planted).has_value());
}

TEST(SpecIo, FileRoundTrip) {
  const ScenarioSpec original = kitchen_sink();
  const std::string path = testing::TempDir() + "/spec_io_test.spec";
  ASSERT_TRUE(save_spec_file(path, original));
  const auto loaded = load_spec_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(spec_to_string(*loaded), spec_to_string(original));
  EXPECT_FALSE(load_spec_file(path + ".does-not-exist").has_value());
}

}  // namespace
}  // namespace ssr::scenario
