// scenario::spec_io — the fuzzer's counterexample interchange format.
// Round-trips must be exact (a saved repro that loads differently is no
// repro at all) and the rendering must be canonical: equal specs serialize
// byte-identically, which the fuzzer determinism test compares directly.
#include <gtest/gtest.h>

#include <sstream>

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
          A::keyed_increments(4, "key prefix"),
          // grow_map needs a fleet beyond the initial map: three_fleets().
      }});
  return s;
}

ScenarioSpec three_fleets() {
  ScenarioSpec s;
  s.name = "three-fleets";
  s.description = "fleet-scoped actions over a 2-of-3 shard map";
  s.shards = 3;
  s.map_shards = 2;
  s.phases.push_back(Phase{
      "sharded",
      {
          A::await_converged(60 * kSec),
          A::crash({1}).on_shard(2),
          A::pause_nodes({1, 2, 3}).on_shard(1),
          A::keyed_increments(6, "k"),
          A::grow_map(),
          A::shmem_write({2}, "reg", 7).on_shard(2),
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
      EXPECT_EQ(la[i].shard, oa[i].shard) << "action " << i;
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
  for (int k = 1; k <= static_cast<int>(ActionKind::kGrowMap); ++k) {
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
}

TEST(SpecIo, MultiFleetSpecRoundTrips) {
  const ScenarioSpec original = three_fleets();
  const std::string text = spec_to_string(original);
  // Multi-fleet fields appear only when set; one-fleet renderings (every
  // saved counterexample) keep their bytes.
  EXPECT_NE(text.find("\nshards 3\nmap_shards 2\n"), std::string::npos);
  EXPECT_NE(text.find(" shard=2 reg=reg\n"), std::string::npos) << text;
  EXPECT_EQ(spec_to_string(kitchen_sink()).find("shard"), std::string::npos);

  std::istringstream in(text);
  const auto loaded = load_spec(in);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->shards, 3u);
  EXPECT_EQ(loaded->map_shards, 2u);
  const auto& actions = loaded->phases.at(0).actions;
  ASSERT_EQ(actions.size(), original.phases[0].actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    EXPECT_EQ(actions[i].kind, original.phases[0].actions[i].kind) << i;
    EXPECT_EQ(actions[i].shard, original.phases[0].actions[i].shard) << i;
  }
  EXPECT_EQ(spec_to_string(*loaded), text);
}

TEST(SpecIo, RejectsFleetsTheSpecDoesNotHave) {
  const auto rejects = [](const std::string& text) {
    std::istringstream in(text);
    return !load_spec(in).has_value();
  };
  const std::string head = "ssrspec v1\nname x\nnodes 3\n";
  const std::string crash_on =
      "phase p\naction crash targets=1 group= n=0 duration=0 shard=";
  EXPECT_FALSE(rejects(head + "shards 2\n" + crash_on + "1 reg=\nend\n"));
  // shard >= shards, including the implicit one-fleet default.
  EXPECT_TRUE(rejects(head + "shards 2\n" + crash_on + "2 reg=\nend\n"));
  EXPECT_TRUE(rejects(head + crash_on + "1 reg=\nend\n"));
  // An initial map wider than the fleets, no fleets at all, absurd counts.
  EXPECT_TRUE(rejects(head + "shards 2\nmap_shards 3\nend\n"));
  EXPECT_TRUE(rejects(head + "shards 0\nend\n"));
  EXPECT_TRUE(rejects(head + "shards 99999999999\nend\n"));
  EXPECT_TRUE(rejects(head + "shards 2\n" + crash_on + "x reg=\nend\n"));
  // Every grow_map widens the map by one fleet, which must exist too.
  const std::string grow =
      "action grow_map targets= group= n=0 duration=0 reg=\n";
  const std::string keyed =
      "action keyed_increments targets= group= n=2 duration=0 reg=k\n";
  EXPECT_FALSE(rejects(head + "shards 2\nmap_shards 1\nphase p\n" + grow +
                       keyed + "end\n"));
  EXPECT_TRUE(rejects(head + "phase p\n" + grow + keyed + keyed + "end\n"));
  EXPECT_TRUE(rejects(head + "shards 2\nphase p\n" + keyed + grow +
                      "end\n"));
  EXPECT_TRUE(rejects(head + "shards 3\nmap_shards 1\nphase p\n" + grow +
                      keyed + grow + grow + keyed + "end\n"));
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
