// The convergence predicates over hand-built snapshots: the one definition
// behind both backends' awaits (harness::World over live nodes,
// scenario::ProcessRunner over parsed STATUS replies).
#include "node/snapshot.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "harness/world.hpp"

namespace ssr::node {
namespace {

using reconf::ConfigValue;

vs::View view_with_sting(std::uint32_t sting) {
  vs::View v;
  v.id.lbl.creator = 1;
  v.id.lbl.sting = sting;
  v.id.lbl.antistings = {5, 9};
  v.id.seqn = 12;
  v.id.wid = 1;
  v.set = {1, 2, 3};
  return v;
}

/// A settled participant: noReco, config `cfg`, multicasting in `view`
/// under coordinator 1.
NodeSnapshot settled(NodeId id, IdSet cfg,
                     const vs::View& view = view_with_sting(7)) {
  NodeSnapshot s;
  s.id = id;
  s.no_reco = true;
  s.participant = true;
  s.config = ConfigValue::set(std::move(cfg));
  NodeSnapshot::Vs& v = s.vs.emplace();
  v.multicast = true;
  v.no_coordinator = false;
  v.coordinator = 1;
  v.view = view;
  return s;
}

std::vector<NodeSnapshot> settled_fleet() {
  return {settled(1, {1, 2, 3}), settled(2, {1, 2, 3}),
          settled(3, {1, 2, 3})};
}

TEST(Predicates, EmptySetSatisfiesNone) {
  const std::vector<NodeSnapshot> none;
  EXPECT_FALSE(common_config(none).has_value());
  EXPECT_FALSE(vs_stable(none));
  EXPECT_FALSE(config_equals_alive(none));
  EXPECT_FALSE(targets_admitted(none, {1}));
}

TEST(Predicates, DefaultSnapshotSatisfiesNone) {
  // A daemon that has not answered yet.
  const std::vector<NodeSnapshot> unsampled(1);
  EXPECT_FALSE(common_config(unsampled).has_value());
  EXPECT_FALSE(vs_stable(unsampled));
  EXPECT_FALSE(config_equals_alive(unsampled));
  EXPECT_FALSE(targets_admitted(unsampled, {1}));

  // And it holds back a fleet that otherwise agrees.
  std::vector<NodeSnapshot> fleet = settled_fleet();
  ASSERT_TRUE(vs_stable(fleet));
  fleet.emplace_back();
  EXPECT_FALSE(common_config(fleet).has_value());
  EXPECT_FALSE(vs_stable(fleet));
}

TEST(Predicates, ConvergedOnOneProperConfiguration) {
  std::vector<NodeSnapshot> fleet = settled_fleet();
  ASSERT_TRUE(common_config(fleet).has_value());
  EXPECT_EQ(*common_config(fleet), (IdSet{1, 2, 3}));
  EXPECT_TRUE(config_equals_alive(fleet));

  fleet[2].config = ConfigValue::set({1, 2});  // disagreement
  EXPECT_FALSE(common_config(fleet).has_value());
  fleet[2].config = ConfigValue::set({});  // not proper
  EXPECT_FALSE(common_config(fleet).has_value());
  fleet[2].config = ConfigValue::bottom();
  EXPECT_FALSE(common_config(fleet).has_value());
  fleet[2] = settled(3, {1, 2, 3});
  fleet[2].no_reco = false;
  EXPECT_FALSE(common_config(fleet).has_value());
}

TEST(Predicates, AdviceBlocksConvergence) {
  std::vector<NodeSnapshot> fleet = settled_fleet();
  fleet[1].advised = true;
  EXPECT_FALSE(common_config(fleet).has_value());
  EXPECT_FALSE(vs_stable(fleet));
  EXPECT_FALSE(config_equals_alive(fleet));
}

TEST(Predicates, ConfigEqualsAliveNeedsExactlyTheAliveSet) {
  std::vector<NodeSnapshot> fleet = settled_fleet();
  fleet.pop_back();  // node 3 crashed: {1,2,3} still agreed, not caught up
  EXPECT_TRUE(common_config(fleet).has_value());
  EXPECT_FALSE(config_equals_alive(fleet));
  fleet.push_back(settled(4, {1, 2, 3}));  // a joiner the config lacks
  EXPECT_FALSE(config_equals_alive(fleet));
}

TEST(Predicates, VsStableComparesTheWholeView) {
  const vs::View a = view_with_sting(7);
  const vs::View b = view_with_sting(8);
  // Same (seqn, wid, set): a digest of those alone calls them one view.
  ASSERT_EQ(a.id.seqn, b.id.seqn);
  ASSERT_EQ(a.id.wid, b.id.wid);
  ASSERT_EQ(a.set, b.set);
  std::vector<NodeSnapshot> fleet = {settled(1, {1, 2}, a),
                                     settled(2, {1, 2}, a)};
  EXPECT_TRUE(vs_stable(fleet));
  fleet[1].vs->view = b;  // differs only in its label
  EXPECT_TRUE(common_config(fleet).has_value());
  EXPECT_FALSE(vs_stable(fleet));
}

TEST(Predicates, VsStableNeedsEveryParticipantSettled) {
  std::vector<NodeSnapshot> fleet = settled_fleet();
  // A joiner is skipped: it syncs up after installation.
  fleet[2].participant = false;
  fleet[2].vs->multicast = false;
  fleet[2].vs->view = vs::View{};
  EXPECT_TRUE(vs_stable(fleet));

  const auto breaks = [](auto mutate) {
    std::vector<NodeSnapshot> f = settled_fleet();
    mutate(f[1]);
    return !vs_stable(f);
  };
  EXPECT_TRUE(breaks([](NodeSnapshot& s) { s.vs.reset(); }));
  EXPECT_TRUE(breaks([](NodeSnapshot& s) { s.vs->multicast = false; }));
  EXPECT_TRUE(breaks([](NodeSnapshot& s) { s.vs->no_coordinator = true; }));
  EXPECT_TRUE(breaks([](NodeSnapshot& s) { s.vs->coordinator = 2; }));
  EXPECT_TRUE(breaks([](NodeSnapshot& s) { s.vs->view = vs::View{}; }));

  // Converged with no participant at all is not VS-stable.
  for (NodeSnapshot& s : fleet) s.participant = false;
  EXPECT_TRUE(common_config(fleet).has_value());
  EXPECT_FALSE(vs_stable(fleet));
}

TEST(Predicates, CrashedOrUnknownTargetIsNotAdmitted) {
  std::vector<NodeSnapshot> alive = {settled(1, {1, 2}), settled(2, {1, 2})};
  EXPECT_TRUE(targets_admitted(alive, {1, 2}));
  EXPECT_TRUE(targets_admitted(alive, {}));
  EXPECT_FALSE(targets_admitted(alive, {3}));     // crashed, or never was
  EXPECT_FALSE(targets_admitted(alive, {1, 3}));
  alive[1].participant = false;
  EXPECT_FALSE(targets_admitted(alive, {2}));
}

TEST(Predicates, WorldSnapshotsSkipACrashedNode) {
  harness::WorldConfig cfg;
  cfg.seed = 3;
  cfg.node.enable_vs = false;
  harness::World w(cfg);
  for (NodeId id = 1; id <= 3; ++id) w.add_node(id);
  ASSERT_TRUE(w.run_until_converged(120 * kSec).has_value());
  ASSERT_TRUE(targets_admitted(w.snapshots(), {1, 2, 3}));

  w.crash(3);
  // Its frozen state still says participant; an alive range leaves it out.
  EXPECT_TRUE(w.node(3).recsa().is_participant());
  EXPECT_FALSE(targets_admitted(w.snapshots(), {3}));
  EXPECT_TRUE(targets_admitted(w.snapshots(), {1, 2}));
  EXPECT_FALSE(vs_stable(w.snapshots()));  // no VS layer
}

}  // namespace
}  // namespace ssr::node
