#include "reconf/join.hpp"

#include <gtest/gtest.h>

#include "harness/monitors.hpp"
#include "harness/world.hpp"

namespace ssr::harness {
namespace {

WorldConfig fast_config(std::uint64_t seed) {
  WorldConfig cfg;
  cfg.seed = seed;
  cfg.node.enable_vs = false;
  return cfg;
}

World& converge(World& w, std::size_t n) {
  for (NodeId id = 1; id <= n; ++id) w.add_node(id);
  EXPECT_TRUE(w.run_until_converged(180 * kSec).has_value());
  return w;
}

// Theorem 3.26: a joiner that the application admits becomes a participant;
// the configuration itself does not change (joins are not reconfigurations).
TEST(Join, AdmittedJoinerBecomesParticipant) {
  World w(fast_config(61));
  converge(w, 3);
  const IdSet config_before = *w.common_config();
  auto& n4 = w.add_node(4);
  w.run_for(120 * kSec);
  EXPECT_TRUE(n4.recsa().is_participant());
  EXPECT_GE(n4.joiner().stats().joined, 1u);
  ASSERT_TRUE(w.converged());
  EXPECT_EQ(*w.common_config(), config_before);
  // The new participant is visible in the members' participant sets.
  EXPECT_TRUE(w.node(1).recsa().participants().contains(4));
}

// passQuery() = False keeps the joiner out (application-controlled churn),
// but the joiner keeps asking (liveness of the request loop).
TEST(Join, DeniedJoinerStaysOut) {
  World w(fast_config(63));
  converge(w, 3);
  for (NodeId id = 1; id <= 3; ++id) {
    w.node(id).set_pass_query([] { return false; });
  }
  auto& n4 = w.add_node(4);
  w.run_for(90 * kSec);
  EXPECT_FALSE(n4.recsa().is_participant());
  EXPECT_TRUE(n4.joiner().waiting_to_join());
  // The system itself stays healthy.
  EXPECT_TRUE(w.converged());
}

// A majority of passes is required: if only one member of three grants,
// the joiner must not be promoted.
TEST(Join, MinorityOfPassesInsufficient) {
  World w(fast_config(65));
  converge(w, 3);
  w.node(2).set_pass_query([] { return false; });
  w.node(3).set_pass_query([] { return false; });
  auto& n4 = w.add_node(4);
  w.run_for(90 * kSec);
  EXPECT_FALSE(n4.recsa().is_participant());
}

// Claim 3.24: no joiner is promoted while a reconfiguration is in progress.
// We hold the system in a notification state by continuously re-proposing.
TEST(Join, NoPromotionDuringReconfiguration) {
  World w(fast_config(67));
  converge(w, 4);
  // Kick off a delicate replacement and immediately add a joiner.
  ASSERT_TRUE(w.node(1).recsa().estab(IdSet{1, 2, 3}));
  auto& n5 = w.add_node(5);
  // While the proposer has not completed the replacement, noReco() is false
  // at every informed node; sample the joiner during this window.
  bool promoted_during_reco = false;
  for (int i = 0; i < 40; ++i) {
    w.run_for(500 * kUsec);
    if (!w.node(1).recsa().no_reco() && n5.recsa().is_participant()) {
      promoted_during_reco = true;
    }
  }
  EXPECT_FALSE(promoted_during_reco);
  // Afterwards the join eventually succeeds.
  ASSERT_TRUE(w.run_until_converged(200 * kSec).has_value());
  w.run_for(120 * kSec);
  EXPECT_TRUE(n5.recsa().is_participant());
}

// Several joiners are admitted concurrently, and the members' configuration
// never moves while they join (§3.3: replacing it is recMA's job).
TEST(Join, ManyJoiners) {
  World w(fast_config(69));
  converge(w, 3);
  const IdSet config_before = *w.common_config();
  ConfigHistoryMonitor history;
  history.attach(w);
  for (NodeId id = 4; id <= 7; ++id) w.add_node(id);
  w.run_for(240 * kSec);
  for (NodeId id = 4; id <= 7; ++id) {
    EXPECT_TRUE(w.node(id).recsa().is_participant()) << id;
  }
  ASSERT_TRUE(w.converged());
  EXPECT_EQ(*w.common_config(), config_before);
  EXPECT_EQ(history.events().size(), 0u);
}

// Members grant passes only while they are members; the grant counter moves.
TEST(Join, PassesAreGrantedByMembers) {
  World w(fast_config(71));
  converge(w, 3);
  w.add_node(4);
  w.run_for(120 * kSec);
  std::uint64_t grants = 0;
  for (NodeId id = 1; id <= 3; ++id) {
    grants += w.node(id).joiner().stats().passes_granted;
  }
  EXPECT_GT(grants, 0u);
}

}  // namespace
}  // namespace ssr::harness
