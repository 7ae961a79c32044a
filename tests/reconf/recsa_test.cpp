#include "reconf/recsa.hpp"

#include <gtest/gtest.h>

#include "harness/fault_injector.hpp"
#include "harness/monitors.hpp"
#include "harness/world.hpp"

namespace ssr::harness {
namespace {

WorldConfig fast_config(std::uint64_t seed) {
  WorldConfig cfg;
  cfg.seed = seed;
  cfg.node.enable_vs = false;  // isolate the reconfiguration scheme
  return cfg;
}

World& converge(World& w, std::size_t n) {
  for (NodeId id = 1; id <= n; ++id) w.add_node(id);
  EXPECT_TRUE(w.run_until_converged(180 * kSec).has_value());
  return w;
}

// Brute-force resets started so far, summed over every node.
std::uint64_t resets_started(World& w) {
  std::uint64_t n = 0;
  for (NodeId id : w.all_ids()) n += w.node(id).recsa().stats().resets_started;
  return n;
}

TEST(RecSAMessageWire, Roundtrip) {
  reconf::RecSAMessage m;
  m.fd = IdSet{1, 2, 3};
  m.part = IdSet{1, 2};
  m.config = reconf::ConfigValue::set(IdSet{1, 2});
  m.prp = reconf::Notification::proposal(1, IdSet{2, 3});
  m.all = true;
  m.echo = reconf::EchoView{IdSet{1}, reconf::Notification::none(), false};
  auto decoded = reconf::RecSAMessage::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->fd, m.fd);
  EXPECT_EQ(decoded->part, m.part);
  EXPECT_EQ(decoded->config, m.config);
  EXPECT_EQ(decoded->prp, m.prp);
  EXPECT_EQ(decoded->all, m.all);
  EXPECT_EQ(decoded->echo, m.echo);
}

TEST(RecSAMessageWire, GarbageRejected) {
  EXPECT_FALSE(reconf::RecSAMessage::decode({}).has_value());
  EXPECT_FALSE(reconf::RecSAMessage::decode({1, 2, 3}).has_value());
}

// --- Brute-force stabilization ---------------------------------------------

// A planted configuration conflict (type-2 stale information) drives the
// brute-force reset: ⊥ propagates, then config ← FD at every node
// (Lemma 3.2 / Claims 3.3–3.6).
TEST(RecSABruteForce, ConflictTriggersResetAndReconverges) {
  World w(fast_config(21));
  converge(w, 4);
  FaultInjector fi(w, 99);
  fi.split_config(IdSet{1, 2}, IdSet{3, 4});
  auto t = w.run_until_converged(180 * kSec);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*w.common_config(), (IdSet{1, 2, 3, 4}));
  // At least one node must have detected staleness and reset.
  EXPECT_GT(resets_started(w), 0u);
}

// Type-4: the configuration names only crashed processors while joiners are
// alive — detected and recovered by reset (complete-collapse handling).
TEST(RecSABruteForce, ConfigOfDeadNodesIsReplaced) {
  World w(fast_config(23));
  converge(w, 4);
  for (NodeId id = 1; id <= 4; ++id) {
    w.node(id).recsa().inject_config(
        id, reconf::ConfigValue::set(IdSet{90, 91, 92}));
  }
  auto t = w.run_until_converged(240 * kSec);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*w.common_config(), (IdSet{1, 2, 3, 4}));
}

// --- Delicate replacement (the Fig. 2 automaton) ----------------------------

// Node 1 replaces the configuration of `nodes` converged nodes once per
// entry of `left_out`, each time by every node but that one.
void replace_without_brute_force(std::uint64_t seed, std::size_t nodes,
                                 const std::vector<NodeId>& left_out) {
  World w(fast_config(seed));
  converge(w, nodes);
  const std::uint64_t resets_before = resets_started(w);
  auto& proposer = w.node(1).recsa();
  for (NodeId out : left_out) {
    IdSet target;
    for (NodeId id = 1; id <= nodes; ++id) {
      if (id != out) target.insert(id);
    }
    const reconf::RecSAStats before = proposer.stats();
    ASSERT_TRUE(proposer.estab(target));
    ASSERT_TRUE(w.run_until_converged(180 * kSec).has_value());
    EXPECT_EQ(*w.common_config(), target);
    // The proposer walked the automaton: 1→2 and 2→0.
    EXPECT_GE(proposer.stats().phase_transitions, before.phase_transitions + 2);
    EXPECT_GE(proposer.stats().delicate_installs, before.delicate_installs + 1);
    // The member left out is still a participant (it follows the new config
    // from outside).
    EXPECT_TRUE(w.node(out).recsa().is_participant());
  }
  EXPECT_EQ(resets_started(w), resets_before);
}

// Delicate replacement must not fall back to brute force (Theorem 3.16):
// once on 4 nodes, and five times back to back on 5 nodes, leaving out each
// member in turn (README, deviation #4).
TEST(RecSADelicate, EstabReplacesConfigWithoutBruteForce) {
  {
    SCOPED_TRACE("one replacement, 4 nodes");
    replace_without_brute_force(25, 4, {4});
  }
  SCOPED_TRACE("five replacements, 5 nodes");
  replace_without_brute_force(7100, 5, {1, 2, 3, 4, 5});
}

TEST(RecSADelicate, EstabRejectsBadArguments) {
  World w(fast_config(27));
  converge(w, 3);
  auto& recsa = w.node(1).recsa();
  EXPECT_FALSE(recsa.estab(IdSet{}));  // empty set
  const IdSet current = recsa.get_config().ids();
  EXPECT_FALSE(recsa.estab(current));  // identical configuration
}

TEST(RecSADelicate, ConcurrentProposalsSelectOne) {
  World w(fast_config(29));
  converge(w, 5);
  // Two simultaneous proposals: the lexically greater set must win.
  const std::uint64_t resets_before = resets_started(w);
  ASSERT_TRUE(w.node(1).recsa().estab(IdSet{1, 2, 3}));
  ASSERT_TRUE(w.node(5).recsa().estab(IdSet{1, 2, 4}));
  auto t = w.run_until_converged(180 * kSec);
  ASSERT_TRUE(t.has_value());
  // ⟨1,{1,2,4}⟩ >lex ⟨1,{1,2,3}⟩, selected without a brute-force reset
  // (Fig. 2).
  EXPECT_EQ(*w.common_config(), (IdSet{1, 2, 4}));
  EXPECT_EQ(resets_started(w), resets_before);
}

TEST(RecSADelicate, NoRecoIsFalseDuringReplacement) {
  World w(fast_config(31));
  converge(w, 3);
  ASSERT_TRUE(w.node(1).recsa().estab(IdSet{1, 2}));
  // Immediately after estab the proposer itself reports a reconfiguration.
  EXPECT_FALSE(w.node(1).recsa().no_reco());
  ASSERT_TRUE(w.run_until_converged(180 * kSec).has_value());
  EXPECT_TRUE(w.node(1).recsa().no_reco());
}

// --- Crash handling ----------------------------------------------------------

TEST(RecSACrash, SurvivesMinorityCrash) {
  World w(fast_config(33));
  converge(w, 5);
  w.crash(5);
  // The remaining majority keeps a common configuration; recMA eventually
  // replaces it (quarter-failed policy does not fire at 1/5, so the old
  // config simply stays in place and stays conflict-free).
  w.run_for(60 * kSec);
  EXPECT_TRUE(w.converged());
}

// --- Quiescent steady state --------------------------------------------------

// broadcast() re-encodes only when recSA's state changed, so a slot
// overwritten behind recSA's back stays wrong until the memo's refresh. The
// memo is part of the arbitrary initial state: every util::kRefresh-th
// tick runs the broadcast in full, which bounds how long a lie survives.
TEST(RecSAQuiescence, OverwrittenSlotHealsWithinKRefreshTicks) {
  World w(fast_config(35));
  converge(w, 3);
  w.run_for(1 * kSec);
  dlink::LinkMux& mux = w.node(1).mux();
  const wire::Bytes* slot = mux.state_slot(dlink::kPortRecSA, 2);
  ASSERT_NE(slot, nullptr);
  const wire::Bytes own = *slot;
  mux.publish_state(dlink::kPortRecSA, 2, wire::Bytes{0xde, 0xad});
  // Ticked directly, with the world stopped: nothing changes recSA's state.
  std::uint32_t ticks = 0;
  while (ticks < util::kRefresh &&
         *mux.state_slot(dlink::kPortRecSA, 2) != own) {
    w.node(1).recsa().tick();
    ++ticks;
  }
  EXPECT_EQ(*mux.state_slot(dlink::kPortRecSA, 2), own)
      << "still overwritten after " << ticks << " ticks";
}

// --- Convergence from arbitrary states (Theorem 3.15) ------------------------

struct CorruptionCase {
  std::uint64_t seed;
  std::size_t nodes;
};

class RecSACorruptionSweep : public ::testing::TestWithParam<CorruptionCase> {};

std::uint64_t delicate_installs(World& w) {
  std::uint64_t n = 0;
  for (NodeId id : w.alive()) n += w.node(id).recsa().stats().delicate_installs;
  return n;
}

// Theorem 3.15 asks for one proper configuration of alive processors in
// which every alive processor participates, not for a particular one. A
// corrupted state may hold a phase-2 proposal that completes as a delicate
// replacement and installs a proper subset of the alive set; otherwise the
// brute-force reset installs config ← FD, i.e. every alive processor.
TEST_P(RecSACorruptionSweep, ConvergesFromArbitraryState) {
  const auto param = GetParam();
  World w(fast_config(param.seed));
  converge(w, param.nodes);
  FaultInjector fi(w, param.seed * 31 + 7);
  fi.corrupt_all_recsa();
  fi.fill_channels_with_garbage(2);
  const std::uint64_t installs_before = delicate_installs(w);
  auto t = w.run_until_converged(400 * kSec);
  ASSERT_TRUE(t.has_value())
      << "seed=" << param.seed << " nodes=" << param.nodes;
  const IdSet alive = w.alive();
  const IdSet common = *w.common_config();  // proper at every alive node
  EXPECT_TRUE(common.subset_of(alive));
  for (NodeId id : alive) {
    EXPECT_TRUE(w.node(id).recsa().is_participant()) << "node " << id;
  }
  if (delicate_installs(w) == installs_before) {
    EXPECT_EQ(common, alive);
  }
  // Closure (Theorem 3.16): no configuration changes afterwards.
  ConfigHistoryMonitor changes;
  changes.attach(w);
  w.run_for(10 * kSec);
  EXPECT_TRUE(changes.events().empty());
  EXPECT_EQ(w.common_config(), common);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecSACorruptionSweep,
    ::testing::Values(CorruptionCase{101, 3}, CorruptionCase{102, 3},
                      CorruptionCase{103, 4}, CorruptionCase{104, 4},
                      CorruptionCase{105, 5}, CorruptionCase{106, 5},
                      CorruptionCase{107, 6}, CorruptionCase{108, 6}));

}  // namespace
}  // namespace ssr::harness
