#include "label/labeling.hpp"

#include <gtest/gtest.h>

#include "harness/fault_injector.hpp"
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

// All members report the same legit maximal label.
bool labels_agree(World& w) {
  std::optional<label::Label> common;
  auto cfg = w.common_config();
  if (!cfg) return false;
  for (NodeId id : *cfg) {
    if (!w.alive().contains(id)) continue;
    auto& lab = w.node(id).labeling();
    if (!lab.member()) return false;
    auto& mx = lab.local_max();
    if (!mx.legit()) return false;
    if (!common) {
      common = mx.main();
    } else if (!(*common == mx.main())) {
      return false;
    }
  }
  return common.has_value();
}

// Labels created so far, summed over the alive nodes.
std::uint64_t creations(World& w) {
  std::uint64_t n = 0;
  for (NodeId id : w.alive()) {
    n += w.node(id).labeling().store().stats().created;
  }
  return n;
}

bool run_until_labels_agree(World& w, SimTime timeout) {
  const SimTime deadline = w.scheduler().now() + timeout;
  while (w.scheduler().now() < deadline) {
    if (labels_agree(w)) return true;
    w.run_for(20 * kMsec);
  }
  return labels_agree(w);
}

// Theorem 4.4 / Corollary 4.3: members converge to one maximal label.
TEST(Labeling, MembersConvergeToGlobalMaxLabel) {
  World w(fast_config(81));
  converge(w, 4);
  EXPECT_TRUE(run_until_labels_agree(w, 120 * kSec));
}

// After a delicate reconfiguration the structures are rebuilt for the new
// member set and convergence is re-established, within N² label creations
// (Theorem 4.4, N = 4 booted nodes).
TEST(Labeling, ReconfigurationRebuildsAndReconverges) {
  World w(fast_config(83));
  converge(w, 4);
  ASSERT_TRUE(run_until_labels_agree(w, 120 * kSec));
  const std::uint64_t created_before = creations(w);
  ASSERT_TRUE(w.node(1).recsa().estab(IdSet{1, 2, 3}));
  ASSERT_TRUE(w.run_until_converged(200 * kSec).has_value());
  EXPECT_TRUE(run_until_labels_agree(w, 120 * kSec));
  EXPECT_LE(creations(w) - created_before, 4u * 4u);
  std::uint64_t rebuilds = 0;
  for (NodeId id = 1; id <= 3; ++id) {
    rebuilds += w.node(id).labeling().stats().rebuilds;
  }
  EXPECT_GT(rebuilds, 0u);
  // Node 4 is no longer a member and must not run the label algorithm.
  EXPECT_FALSE(w.node(4).labeling().member());
}

// Lemma 4.1: labels created by non-members are purged and never readopted.
TEST(Labeling, NonMemberLabelsPurged) {
  World w(fast_config(85));
  converge(w, 3);
  ASSERT_TRUE(run_until_labels_agree(w, 120 * kSec));
  // Plant a label by a non-member creator (id 99) as node 1's max.
  Rng rng(850);
  label::Label foreign = label::Label::next_label(99, {}, rng);
  w.node(1).labeling().store().inject_max(2, label::LabelPair::of(foreign));
  ASSERT_TRUE(run_until_labels_agree(w, 120 * kSec));
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_NE(w.node(id).labeling().local_max().creator(), 99u) << id;
  }
}

// Corrupted stores (arbitrary labels everywhere) still converge — and the
// number of fresh label creations stays within Theorem 4.4's N(N²+m).
TEST(Labeling, ConvergesFromCorruptedStores) {
  World w(fast_config(87));
  converge(w, 3);
  ASSERT_TRUE(run_until_labels_agree(w, 120 * kSec));
  const std::uint64_t created_before = creations(w);
  Rng rng(870);
  for (NodeId id = 1; id <= 3; ++id) {
    auto& store = w.node(id).labeling().store();
    for (NodeId j = 1; j <= 3; ++j) {
      label::Label junk = label::Label::next_label(j, {}, rng);
      junk.sting = static_cast<std::uint32_t>(rng.next_below(1000));
      store.inject_max(j, label::LabelPair::of(junk));
      store.inject_stored(j, label::LabelPair::of(junk));
    }
  }
  EXPECT_TRUE(run_until_labels_agree(w, 200 * kSec));
  // m bounds the label pairs in transit on a link: one per packet in each
  // of its two channels.
  const std::uint64_t n = 3;
  const std::uint64_t m = 2 * w.config().channel.capacity;
  EXPECT_LE(creations(w) - created_before, n * (n * n + m));
}

}  // namespace
}  // namespace ssr::harness
