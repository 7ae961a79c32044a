#include "util/id_set.hpp"

#include <gtest/gtest.h>

namespace ssr {
namespace {

TEST(IdSet, StartsEmpty) {
  IdSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(1));
}

TEST(IdSet, InitializerListSortsAndDeduplicates) {
  IdSet s{5, 1, 3, 1, 5};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.values(), (std::vector<NodeId>{1, 3, 5}));
}

TEST(IdSet, FromVectorNormalizes) {
  IdSet s = IdSet::from_vector({9, 2, 2, 7, 9});
  EXPECT_EQ(s.values(), (std::vector<NodeId>{2, 7, 9}));
}

// An empty std::vector's data() may be null; from_vector must not hand it
// to memcpy (UBSan's nonnull-attribute check, run by the sanitize job).
TEST(IdSet, FromEmptyVector) {
  IdSet s = IdSet::from_vector({});
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s, IdSet{});
  EXPECT_TRUE(s.insert(3));
  EXPECT_EQ(s.values(), (std::vector<NodeId>{3}));
}

TEST(IdSet, InsertReportsNovelty) {
  IdSet s;
  EXPECT_TRUE(s.insert(4));
  EXPECT_FALSE(s.insert(4));
  EXPECT_TRUE(s.insert(2));
  EXPECT_EQ(s.values(), (std::vector<NodeId>{2, 4}));
}

TEST(IdSet, EraseReportsPresence) {
  IdSet s{1, 2, 3};
  EXPECT_TRUE(s.erase(2));
  EXPECT_FALSE(s.erase(2));
  EXPECT_EQ(s.values(), (std::vector<NodeId>{1, 3}));
}

TEST(IdSet, SubsetOf) {
  IdSet small{1, 3};
  IdSet big{1, 2, 3};
  EXPECT_TRUE(small.subset_of(big));
  EXPECT_FALSE(big.subset_of(small));
  EXPECT_TRUE(IdSet{}.subset_of(small));
  EXPECT_TRUE(small.subset_of(small));
}

TEST(IdSet, SetAlgebra) {
  IdSet a{1, 2, 3, 4};
  IdSet b{3, 4, 5};
  EXPECT_EQ(a.intersect(b), (IdSet{3, 4}));
  EXPECT_EQ(a.unite(b), (IdSet{1, 2, 3, 4, 5}));
  EXPECT_EQ(a.subtract(b), (IdSet{1, 2}));
  EXPECT_EQ(a.intersection_size(b), 2u);
  EXPECT_EQ(a.intersection_size(IdSet{}), 0u);
}

TEST(IdSet, OrderingIsLexicographicOnSortedContents) {
  EXPECT_LT((IdSet{1, 2}), (IdSet{1, 3}));
  EXPECT_LT((IdSet{1}), (IdSet{1, 2}));
  EXPECT_EQ((IdSet{2, 1}), (IdSet{1, 2}));
}

TEST(IdSet, ToString) {
  EXPECT_EQ((IdSet{3, 1}).to_string(), "{1,3}");
  EXPECT_EQ(IdSet{}.to_string(), "{}");
}

// --- small-buffer boundary coverage -------------------------------------
// IdSet stores ≤ kInlineCapacity ids in the object; these tests walk sets
// across the inline/heap boundary in both directions and through copies
// and moves, where a buggy SBO shows up as lost or duplicated elements.

std::vector<NodeId> iota_ids(std::size_t n, NodeId start = 0) {
  std::vector<NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = start + static_cast<NodeId>(i);
  return v;
}

TEST(IdSet, GrowsPastInlineCapacity) {
  IdSet s;
  const std::size_t n = IdSet::kInlineCapacity * 3;
  // Descending inserts exercise the shifting slow path at every size.
  for (std::size_t i = n; i > 0; --i) {
    EXPECT_TRUE(s.insert(static_cast<NodeId>(i - 1)));
  }
  EXPECT_EQ(s.size(), n);
  EXPECT_EQ(s.values(), iota_ids(n));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(s.contains(static_cast<NodeId>(i)));
  }
  EXPECT_FALSE(s.contains(static_cast<NodeId>(n)));
}

TEST(IdSet, EraseAcrossInlineBoundary) {
  IdSet s = IdSet::from_vector(iota_ids(IdSet::kInlineCapacity + 4));
  // Shrink back below the inline capacity; contents must stay exact.
  for (NodeId id = 0; id < 8; ++id) {
    EXPECT_TRUE(s.erase(id));
  }
  EXPECT_EQ(s.size(), IdSet::kInlineCapacity - 4);
  EXPECT_EQ(s.values(), iota_ids(IdSet::kInlineCapacity - 4, 8));
  EXPECT_FALSE(s.erase(0));
}

TEST(IdSet, CopyAndMoveSemantics) {
  const IdSet small{1, 2, 3};
  const IdSet big = IdSet::from_vector(iota_ids(IdSet::kInlineCapacity * 2));

  IdSet small_copy = small;
  IdSet big_copy = big;
  EXPECT_EQ(small_copy, small);
  EXPECT_EQ(big_copy, big);

  // Mutating the copy must not alias the original.
  small_copy.insert(99);
  big_copy.erase(0);
  EXPECT_NE(small_copy, small);
  EXPECT_NE(big_copy, big);
  EXPECT_EQ(small.size(), 3u);
  EXPECT_EQ(big.size(), IdSet::kInlineCapacity * 2);

  IdSet moved_small = std::move(small_copy);
  IdSet moved_big = std::move(big_copy);
  EXPECT_TRUE(moved_small.contains(99));
  EXPECT_FALSE(moved_big.contains(0));
  EXPECT_EQ(moved_big.size(), IdSet::kInlineCapacity * 2 - 1);

  // Assignment over existing contents, both directions of the boundary.
  moved_small = big;
  EXPECT_EQ(moved_small, big);
  moved_big = small;
  EXPECT_EQ(moved_big, small);
  moved_big = std::move(moved_small);
  EXPECT_EQ(moved_big, big);
}

TEST(IdSet, SetAlgebraOnLargeSets) {
  const std::size_t n = IdSet::kInlineCapacity * 2;
  IdSet evens;
  IdSet all = IdSet::from_vector(iota_ids(n));
  for (std::size_t i = 0; i < n; i += 2) {
    evens.insert(static_cast<NodeId>(i));
  }
  EXPECT_TRUE(evens.subset_of(all));
  EXPECT_EQ(all.intersect(evens), evens);
  EXPECT_EQ(all.unite(evens), all);
  EXPECT_EQ(all.subtract(evens).size(), n / 2);
  EXPECT_EQ(all.intersection_size(evens), n / 2);
  EXPECT_GT(evens, all);  // {0,2,...} vs {0,1,...}: 2 > 1 at index 1
}

}  // namespace
}  // namespace ssr
