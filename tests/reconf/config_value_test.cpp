#include "reconf/config_value.hpp"

#include <gtest/gtest.h>

namespace ssr::reconf {
namespace {

TEST(ConfigValue, DefaultIsNonParticipant) {
  ConfigValue v;
  EXPECT_TRUE(v.is_non_participant());
  EXPECT_FALSE(v.is_bottom());
  EXPECT_FALSE(v.is_set());
  EXPECT_FALSE(v.is_proper());
}

TEST(ConfigValue, BottomAndSet) {
  EXPECT_TRUE(ConfigValue::bottom().is_bottom());
  auto s = ConfigValue::set(IdSet{1, 2});
  EXPECT_TRUE(s.is_set());
  EXPECT_TRUE(s.is_proper());
  EXPECT_EQ(s.ids(), (IdSet{1, 2}));
}

TEST(ConfigValue, EmptySetIsNotProper) {
  auto s = ConfigValue::set(IdSet{});
  EXPECT_TRUE(s.is_set());
  EXPECT_FALSE(s.is_proper());  // type-2 stale information
}

TEST(ConfigValue, EqualityDistinguishesTags) {
  EXPECT_EQ(ConfigValue::bottom(), ConfigValue::bottom());
  EXPECT_NE(ConfigValue::bottom(), ConfigValue::non_participant());
  EXPECT_NE(ConfigValue::set(IdSet{1}), ConfigValue::set(IdSet{2}));
  EXPECT_EQ(ConfigValue::set(IdSet{1}), ConfigValue::set(IdSet{1}));
}

TEST(ConfigValue, RoundtripAllTags) {
  for (const auto& v :
       {ConfigValue::non_participant(), ConfigValue::bottom(),
        ConfigValue::set(IdSet{3, 5, 9})}) {
    wire::Writer w;
    v.encode(w);
    wire::Reader r(w.data());
    EXPECT_EQ(ConfigValue::decode(r), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(ConfigValue, CorruptedTagDecodesAsReset) {
  wire::Bytes raw{42};  // invalid tag byte
  wire::Reader r(raw);
  EXPECT_TRUE(ConfigValue::decode(r).is_bottom());
}

TEST(ConfigValue, DeterministicTotalOrder) {
  // Used by chsConfig()'s choose(); only determinism matters.
  auto a = ConfigValue::set(IdSet{1});
  auto b = ConfigValue::set(IdSet{2});
  EXPECT_TRUE((a < b) != (b < a));
  EXPECT_TRUE(ConfigValue::non_participant() < ConfigValue::bottom());
  EXPECT_TRUE(ConfigValue::bottom() < a);
}

TEST(ConfigValue, GtestPrintsTheValue) {
  EXPECT_EQ(testing::PrintToString(ConfigValue::set(IdSet{1, 2, 3})),
            "{1,2,3}");
  EXPECT_EQ(testing::PrintToString(ConfigValue::non_participant()), "]");
}

}  // namespace
}  // namespace ssr::reconf
