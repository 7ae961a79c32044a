#include "label/pair_store.hpp"

#include <gtest/gtest.h>

#include "label/label_store.hpp"
#include "util/memo.hpp"

namespace ssr::label {
namespace {

Label mk(NodeId creator, std::uint32_t sting,
         std::vector<std::uint32_t> anti = {}) {
  Label l;
  l.creator = creator;
  l.sting = sting;
  std::sort(anti.begin(), anti.end());
  l.antistings = std::move(anti);
  return l;
}

LabelStore make_store(NodeId self, const IdSet& members) {
  LabelStore s(self, StoreConfig{}, Rng(42));
  s.rebuild(members);
  return s;
}

// useOwnLabel(): with nothing known, a fresh own label is created and
// becomes the local max.
TEST(PairStore, CreatesOwnLabelWhenEmpty) {
  auto s = make_store(1, IdSet{1, 2});
  s.refresh();
  EXPECT_TRUE(s.local_max().legit());
  EXPECT_EQ(s.local_max().creator(), 1u);
  EXPECT_EQ(s.stats().created, 1u);
}

// Line 26: the maximal legit label among the max entries is adopted.
TEST(PairStore, AdoptsGreaterLegitLabel) {
  auto s = make_store(1, IdSet{1, 2});
  s.refresh();  // own label, creator 1
  LabelPair theirs = LabelPair::of(mk(2, 50));
  s.receipt(theirs, LabelPair::null(), 2);
  // Creator 2 > creator 1 in the cross-creator order.
  EXPECT_TRUE(s.local_max().legit());
  EXPECT_EQ(s.local_max().creator(), 2u);
}

// Line 19: a peer echoing a cancellation of our max forces us off it.
TEST(PairStore, EchoedCancellationAdopted) {
  auto s = make_store(2, IdSet{1, 2});
  s.refresh();
  LabelPair mine = s.local_max();
  LabelPair cancelled = mine;
  cancelled.cancel_with(mk(2, mine.main().sting + 1));
  s.receipt(LabelPair::null(), cancelled, 1);
  // Our old max was cancelled; a new own label was minted (creator 2 is the
  // greatest member, so the new max is ours again but fresher).
  EXPECT_TRUE(s.local_max().legit());
  EXPECT_FALSE(s.local_max().same_main(mine));
  EXPECT_GE(s.stats().created, 2u);
}

// staleInfo(): a label stored under the wrong creator's queue flushes all.
TEST(PairStore, StaleQueueFlushed) {
  auto s = make_store(1, IdSet{1, 2});
  s.refresh();
  s.inject_stored(2, LabelPair::of(mk(1, 7)));  // creator 1 in queue 2
  s.refresh();
  EXPECT_GE(s.stats().stale_flushes, 1u);
  const auto* q2 = s.queue(2);
  EXPECT_TRUE(q2 == nullptr || q2->empty() ||
              (*q2)[0].creator() == 2u);
}

// Line 22: stored evidence cancels a lesser stored label.
TEST(PairStore, StoredEvidenceCancels) {
  auto s = make_store(1, IdSet{1, 2});
  Label small = mk(2, 10);
  Label big = mk(2, 20, {10});  // big cancels small
  s.receipt(LabelPair::of(small), LabelPair::null(), 2);
  s.receipt(LabelPair::of(big), LabelPair::null(), 2);
  s.refresh();
  // The max must be the big label; the small one is cancelled in the queue.
  EXPECT_TRUE(s.local_max().legit());
  EXPECT_EQ(s.local_max().main(), big);
  const auto* q = s.queue(2);
  ASSERT_NE(q, nullptr);
  bool small_cancelled = false;
  for (const auto& lp : *q) {
    if (lp.has_main() && lp.main() == small && !lp.legit())
      small_cancelled = true;
  }
  EXPECT_TRUE(small_cancelled);
}

// Incomparable labels of one creator cancel each other; a fresh dominating
// label is created by that creator.
TEST(PairStore, IncomparablesBothCancelled) {
  auto s = make_store(2, IdSet{1, 2});
  Label a = mk(2, 10, {20});
  Label b = mk(2, 20, {10});
  s.receipt(LabelPair::of(a), LabelPair::null(), 1);
  s.refresh();
  s.inject_max(1, LabelPair::of(b));
  s.refresh();
  // Eventually the local max is a *new* own label dominating both.
  for (int i = 0; i < 4; ++i) s.refresh();
  EXPECT_TRUE(s.local_max().legit());
  const Label& m = s.local_max().main();
  EXPECT_FALSE(m == a);
  EXPECT_FALSE(m == b);
}

// rebuild(): non-member structures disappear.
TEST(PairStore, RebuildDropsNonMembers) {
  auto s = make_store(1, IdSet{1, 2, 3});
  s.receipt(LabelPair::of(mk(3, 5)), LabelPair::null(), 3);
  s.rebuild(IdSet{1, 2});
  EXPECT_EQ(s.max_entry(3), nullptr);
  s.refresh();
  EXPECT_TRUE(s.local_max().legit());
  EXPECT_NE(s.local_max().creator(), 3u);
}

// Queue capacity is enforced.
TEST(PairStore, QueueCapacityBounded) {
  StoreConfig cfg;
  cfg.peer_queue_capacity = 3;
  LabelStore s(1, cfg, Rng(43));
  s.rebuild(IdSet{1, 2});
  for (std::uint32_t i = 0; i < 20; ++i) {
    s.receipt(LabelPair::of(mk(2, 100 + i)), LabelPair::null(), 2);
  }
  const auto* q = s.queue(2);
  ASSERT_NE(q, nullptr);
  EXPECT_LE(q->size(), 3u);
}

// Duplicate mains are merged (the cancelled copy wins).
TEST(PairStore, DuplicatesMerged) {
  auto s = make_store(1, IdSet{1, 2});
  Label l = mk(2, 9);
  LabelPair legit = LabelPair::of(l);
  LabelPair cancelled = legit;
  cancelled.cancel_with(mk(2, 10, {9}));
  s.inject_stored(2, legit);
  s.inject_stored(2, cancelled);
  s.refresh();
  const auto* q = s.queue(2);
  if (q != nullptr) {
    int copies = 0;
    for (const auto& lp : *q) {
      if (lp.has_main() && lp.main() == l) ++copies;
    }
    EXPECT_LE(copies, 1);
  }
}

// The mint path's candidate scratch is arena-backed and rewound per mint:
// after the first few mints establish the arena's high-water mark, repeated
// minting adds no backing storage (the allocation-cleanup contract;
// `alloc_tests` guards the maintain path, this guards the mint scratch end
// to end).
TEST(PairStore, MintScratchStopsGrowing) {
  auto s = make_store(1, IdSet{1});
  // Force repeated mints: cancel the own max with itself as evidence; the
  // next maintenance round propagates the cancellation into the stored
  // queue, finds no legit label anywhere, and must mint afresh.
  auto force_mint = [&s] {
    LabelPair dead = s.local_max();
    ASSERT_TRUE(dead.has_main());
    dead.cancel_with(dead.main());
    s.inject_max(1, dead);
    s.refresh();
  };
  s.refresh();  // first mint
  for (int i = 0; i < 4; ++i) force_mint();
  const std::uint64_t minted = s.stats().created;
  ASSERT_GT(minted, 1u);
  const std::size_t mark = s.mint_arena().capacity_bytes();
  ASSERT_GT(s.mint_arena().allocations(), 0u);
  for (int i = 0; i < 50; ++i) force_mint();
  EXPECT_GT(s.stats().created, minted);
  EXPECT_EQ(s.mint_arena().capacity_bytes(), mark)
      << "mint scratch grew past its high-water mark";
}

// A receipt that repeats the previous one from the same member returns at
// once, but only while the store has not changed since that receipt: a
// change anywhere in the store makes the next repeat run in full.
TEST(PairStore, RepeatedReceiptSkippedOnlyWhileStoreUnchanged) {
  auto s = make_store(1, IdSet{1, 2, 3});
  const LabelPair from2 = LabelPair::of(mk(2, 7));
  const LabelPair none = LabelPair::null();
  s.receipt(from2, none, 2);  // records and adopts the label: a change
  s.receipt(from2, none, 2);  // changes nothing; now remembered
  EXPECT_EQ(s.stats().receipts_skipped, 0u);
  const std::uint64_t v = s.version();
  s.receipt(from2, none, 2);
  EXPECT_EQ(s.stats().receipts_skipped, 1u);
  EXPECT_EQ(s.version(), v);

  s.receipt(LabelPair::of(mk(3, 9)), none, 3);  // a greater label: a change
  ASSERT_NE(s.version(), v);
  s.receipt(from2, none, 2);  // the store moved: runs in full
  EXPECT_EQ(s.stats().receipts_skipped, 1u);
  s.receipt(from2, none, 2);
  EXPECT_EQ(s.stats().receipts_skipped, 2u);
  s.receipt(LabelPair::of(mk(2, 8)), none, 2);  // other pairs: runs in full
  EXPECT_EQ(s.stats().receipts_skipped, 2u);
  EXPECT_EQ(s.local_max().creator(), 3u);
}

// The memo is part of the arbitrary initial state. Here a max entry
// changes behind the store's back (the visitor reports no change, as a
// missed version bump would): repeats of the receipt that would repair it
// are skipped, until the util::kRefresh-th one runs in full and leaves the
// store where a full receipt on a healthy store leaves it.
TEST(PairStore, LyingReceiptMemoHealsWithinKRefreshRepeats) {
  const LabelPair from2 = LabelPair::of(mk(2, 7));
  const LabelPair none = LabelPair::null();
  auto healthy = make_store(1, IdSet{1, 2});
  auto s = make_store(1, IdSet{1, 2});
  for (int i = 0; i < 2; ++i) {
    healthy.receipt(from2, none, 2);
    s.receipt(from2, none, 2);  // the second one is remembered as a no-op
  }
  s.for_each_max([](NodeId j, LabelPair& p) {
    if (j == 2) p = LabelPair::null();
    return false;  // the lie: a change reported as none
  });
  ASSERT_FALSE(s.max_entry(2)->has_main());
  for (std::uint32_t i = 1; i < util::kRefresh; ++i) {
    s.receipt(from2, none, 2);
    EXPECT_FALSE(s.max_entry(2)->has_main()) << "repeat " << i << " ran";
  }
  s.receipt(from2, none, 2);  // the kRefresh-th repeat
  ASSERT_NE(s.max_entry(2), nullptr);
  EXPECT_EQ(*s.max_entry(2), *healthy.max_entry(2));
  EXPECT_EQ(s.local_max(), healthy.local_max());
  ASSERT_NE(s.queue(2), nullptr);
  EXPECT_EQ(*s.queue(2), *healthy.queue(2));
}

}  // namespace
}  // namespace ssr::label
