#include "shard/shard_map.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace ssr::shard {
namespace {

TEST(ShardMap, UniformCoversEveryShard) {
  for (std::uint32_t k : {1u, 2u, 3u, 4u, 7u}) {
    const ShardMap m = ShardMap::uniform(k);
    EXPECT_EQ(m.shard_count(), k);
    EXPECT_EQ(m.epoch(), 1u);
    std::uint32_t total = 0;
    for (ShardId s = 0; s < k; ++s) {
      const std::uint32_t owned = m.slots_owned(s);
      EXPECT_GE(owned, static_cast<std::uint32_t>(ShardMap::kSlots) / k)
          << "shard " << s << " of " << k;
      total += owned;
    }
    EXPECT_EQ(total, ShardMap::kSlots);
  }
}

// Determinism across processes and architectures: the key hash is defined
// byte-at-a-time (FNV-1a 64), so these values are constants of the
// algorithm, not of this build. If this test fails on any platform, routers
// on different hosts would disagree about key placement.
TEST(ShardMap, KeyHashIsAStableCrossPlatformConstant) {
  EXPECT_EQ(ShardMap::hash_key(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(ShardMap::hash_key("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(ShardMap::hash_key("counter:0"), ShardMap::hash_key("counter:0"));
  EXPECT_NE(ShardMap::hash_key("counter:0"), ShardMap::hash_key("counter:1"));
  // Slot projections of a few concrete workload keys, pinned.
  EXPECT_EQ(ShardMap::slot_for_key("counter:0"),
            ShardMap::hash_key("counter:0") % ShardMap::kSlots);
  const ShardMap m = ShardMap::uniform(4);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key:" + std::to_string(i);
    EXPECT_EQ(m.shard_for_key(key), m.shard_of_slot(ShardMap::slot_for_key(key)));
    EXPECT_LT(m.shard_for_key(key), 4u);
  }
}

TEST(ShardMap, WireRoundTrip) {
  const ShardMap m = ShardMap::uniform(5, 42).with_shard_added();
  wire::Writer w;
  m.encode(w);
  wire::Reader r(w.data());
  const auto back = ShardMap::decode(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(*back, m);
  EXPECT_EQ(back->epoch(), 43u);
  EXPECT_EQ(back->shard_count(), 6u);
}

TEST(ShardMap, DecodeRejectsCorruptMaps) {
  // Slot owned by a shard ≥ shard_count.
  wire::Writer w;
  w.u64(7);
  w.u32(2);
  for (std::size_t s = 0; s < ShardMap::kSlots; ++s) {
    w.u8(s == 10 ? 9 : 0);
  }
  wire::Reader r(w.data());
  EXPECT_FALSE(ShardMap::decode(r).has_value());

  // Zero shards.
  wire::Writer w2;
  w2.u64(7);
  w2.u32(0);
  for (std::size_t s = 0; s < ShardMap::kSlots; ++s) w2.u8(0);
  wire::Reader r2(w2.data());
  EXPECT_FALSE(ShardMap::decode(r2).has_value());

  // Truncated image.
  const wire::Bytes truncated{1, 2, 3};
  wire::Reader r3(truncated);
  EXPECT_FALSE(ShardMap::decode(r3).has_value());
}

// Minimal movement: growing K → K+1 moves only ~1/(K+1) of the slot space,
// and every slot that did not move to the new shard keeps its old owner.
TEST(ShardMap, AddingAShardMovesOnlyItsShare) {
  for (std::uint32_t k : {1u, 2u, 3u, 4u, 8u}) {
    const ShardMap before = ShardMap::uniform(k);
    const ShardMap after = before.with_shard_added();
    EXPECT_EQ(after.epoch(), before.epoch() + 1);
    EXPECT_EQ(after.shard_count(), k + 1);
    const std::uint32_t share =
        static_cast<std::uint32_t>(ShardMap::kSlots) / (k + 1);
    std::uint32_t moved = 0;
    for (std::uint32_t slot = 0; slot < ShardMap::kSlots; ++slot) {
      if (after.shard_of_slot(slot) != before.shard_of_slot(slot)) {
        ++moved;
        // Moved slots go to the new shard only — never shuffled between
        // surviving shards.
        EXPECT_EQ(after.shard_of_slot(slot), k);
      }
    }
    EXPECT_EQ(moved, share) << "k=" << k;
    EXPECT_EQ(after.slots_owned(k), share);
    // Load stays balanced: no survivor owns more than ceil plus one of the
    // even share.
    for (ShardId s = 0; s <= k; ++s) {
      EXPECT_LE(after.slots_owned(s),
                static_cast<std::uint32_t>(ShardMap::kSlots) / (k + 1) + 2);
    }
  }
}

TEST(ShardMap, GrowthIsDeterministic) {
  const ShardMap a = ShardMap::uniform(3).with_shard_added();
  const ShardMap b = ShardMap::uniform(3).with_shard_added();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(ShardMap, AtEpochRestampsOnly) {
  const ShardMap m = ShardMap::uniform(2, 5);
  const ShardMap n = m.at_epoch(9);
  EXPECT_EQ(n.epoch(), 9u);
  EXPECT_EQ(n.shard_count(), 2u);
  for (std::uint32_t slot = 0; slot < ShardMap::kSlots; ++slot) {
    EXPECT_EQ(n.shard_of_slot(slot), m.shard_of_slot(slot));
  }
}

}  // namespace
}  // namespace ssr::shard
