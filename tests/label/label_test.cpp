#include "label/label.hpp"

#include <gtest/gtest.h>

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

/// next_label over labels held by value, through a pointer list.
Label next_of(NodeId creator, const std::vector<Label>& known, Rng& rng) {
  std::vector<const Label*> ptrs;
  for (const Label& l : known) ptrs.push_back(&l);
  return Label::next_label(creator, ptrs, rng);
}

TEST(Label, CancelsRequiresBothDirections) {
  // b cancels a: a's sting is in b's antistings, b's sting not in a's.
  Label a = mk(1, 10, {});
  Label b = mk(1, 20, {10});
  EXPECT_TRUE(Label::cancels(a, b));
  EXPECT_FALSE(Label::cancels(b, a));
}

TEST(Label, IncomparableSameCreator) {
  Label a = mk(1, 10, {20});
  Label b = mk(1, 20, {10});
  // Each sting is in the other's antistings: neither dominates.
  EXPECT_FALSE(Label::cancels(a, b));
  EXPECT_FALSE(Label::cancels(b, a));
}

TEST(Label, CrossCreatorOrderedById) {
  Label a = mk(1, 99);
  Label b = mk(2, 1);
  EXPECT_TRUE(Label::lb_less(a, b));
  EXPECT_FALSE(Label::lb_less(b, a));
  EXPECT_TRUE(Label::total_less(a, b));
}

TEST(Label, TotalLessIsDeterministicOnIncomparables) {
  Label a = mk(1, 10, {20});
  Label b = mk(1, 20, {10});
  EXPECT_NE(Label::total_less(a, b), Label::total_less(b, a));
}

TEST(Label, NextLabelDominatesKnown) {
  Rng rng(5);
  std::vector<Label> known;
  for (std::uint32_t s = 100; s < 110; ++s) known.push_back(mk(3, s, {s + 1}));
  Label next = next_of(3, known, rng);
  EXPECT_EQ(next.creator, 3u);
  for (const Label& k : known) {
    EXPECT_TRUE(Label::cancels(k, next)) << k.to_string();
  }
}

TEST(Label, NextLabelIgnoresForeignCreators) {
  Rng rng(7);
  std::vector<Label> known{mk(9, 1, {2})};
  Label next = next_of(3, known, rng);
  EXPECT_EQ(next.creator, 3u);
  EXPECT_TRUE(next.antistings.empty());
}

TEST(Label, NextLabelChainGrows) {
  // Repeated creation yields a strictly growing chain under ≺lb.
  Rng rng(11);
  std::vector<Label> known;
  for (int i = 0; i < 20; ++i) {
    Label next = next_of(1, known, rng);
    for (const Label& k : known) EXPECT_TRUE(Label::cancels(k, next));
    known.insert(known.begin(), next);
    if (known.size() > Label::kAntistings) known.pop_back();
  }
}

TEST(Label, Roundtrip) {
  Label l = mk(4, 77, {1, 2, 3});
  wire::Writer w;
  l.encode(w);
  wire::Reader r(w.data());
  auto decoded = Label::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, l);
}

TEST(Label, OversizedAntistingsRejected) {
  wire::Writer w;
  w.node_id(1);
  w.u32(5);
  w.u16(1000);  // larger than kAntistings
  wire::Reader r(w.data());
  EXPECT_FALSE(Label::decode(r).has_value());
}

TEST(LabelPair, LegitAndCancel) {
  LabelPair p = LabelPair::of(mk(1, 5));
  EXPECT_TRUE(p.legit());
  EXPECT_TRUE(p.has_main());
  p.cancel_with(mk(1, 6));
  EXPECT_FALSE(p.legit());
  EXPECT_TRUE(p.has_main());
}

TEST(LabelPair, NullPair) {
  LabelPair p = LabelPair::null();
  EXPECT_FALSE(p.has_main());
  EXPECT_FALSE(p.legit());
}

TEST(LabelPair, MergePrefersCancelled) {
  LabelPair legit = LabelPair::of(mk(1, 5));
  LabelPair cancelled = legit;
  cancelled.cancel_with(mk(1, 9));
  EXPECT_FALSE(legit.merged_with(cancelled).legit());
  EXPECT_FALSE(cancelled.merged_with(legit).legit());
}

TEST(LabelPair, ForeignCreatorDetection) {
  LabelPair p = LabelPair::of(mk(7, 5));
  EXPECT_TRUE(p.has_foreign_creator(IdSet{1, 2}));
  EXPECT_FALSE(p.has_foreign_creator(IdSet{7}));
  p.cancel_with(mk(3, 1));
  EXPECT_TRUE(p.has_foreign_creator(IdSet{7}));
}

TEST(LabelPair, Roundtrip) {
  LabelPair p = LabelPair::of(mk(2, 8, {1}));
  p.cancel_with(mk(2, 9, {8}));
  wire::Writer w;
  p.encode(w);
  wire::Reader r(w.data());
  EXPECT_EQ(LabelPair::decode(r), p);
}

}  // namespace
}  // namespace ssr::label
