// net::Session unit tests: the envelope codec sweeps ported from the
// pre-extraction UdpTransport tests (bit flips, truncation, version skew —
// the extraction must provably preserve PR 5 semantics), plus the
// session-owned classification and peer-learning policy that used to be
// buried in the socket drain loop.
#include "net/session.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace ssr::net {
namespace {

TEST(SessionEnvelope, Roundtrip) {
  const wire::Bytes payload{1, 2, 3, 4};
  const wire::Bytes datagram = Session::encode_envelope(3, 7, 9, payload);
  std::uint32_t shard = 0;
  auto pkt =
      Session::decode_envelope(datagram.data(), datagram.size(), &shard);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(shard, 3u);
  EXPECT_EQ(pkt->src, 7u);
  EXPECT_EQ(pkt->dst, 9u);
  EXPECT_EQ(pkt->payload, payload);
}

TEST(SessionEnvelope, SealStampsTheSessionShard) {
  Session s(SessionConfig{1, 42, true});
  const wire::Bytes payload{9, 8, 7};
  const wire::Bytes datagram = s.seal(1, 2, payload);
  std::uint32_t shard = 0;
  auto pkt =
      Session::decode_envelope(datagram.data(), datagram.size(), &shard);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(shard, 42u);
  EXPECT_EQ(pkt->src, 1u);
  EXPECT_EQ(pkt->dst, 2u);
  EXPECT_EQ(pkt->payload, payload);
}

TEST(SessionEnvelope, RejectsGarbageAndTruncation) {
  EXPECT_FALSE(Session::decode_envelope(nullptr, 0).has_value());
  const wire::Bytes junk{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3};
  EXPECT_FALSE(Session::decode_envelope(junk.data(), junk.size()));
  wire::Bytes good = Session::encode_envelope(0, 1, 2, {5, 6, 7});
  for (std::size_t cut = 1; cut < good.size(); ++cut) {
    EXPECT_FALSE(Session::decode_envelope(good.data(), good.size() - cut))
        << "accepted a datagram truncated by " << cut;
  }
  wire::Bytes bad_version = good;
  bad_version[4] ^= 0xFF;  // the version byte follows the u32 magic
  EXPECT_FALSE(
      Session::decode_envelope(bad_version.data(), bad_version.size()));
  wire::Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(Session::decode_envelope(trailing.data(), trailing.size()));
}

// Table-driven hostile-envelope sweep: every single-bit flip over the whole
// datagram and a version skew table. A flip inside the framing (magic,
// version, length) must be rejected; a flip inside src/dst/payload yields a
// well-formed envelope with different content — either way decode must not
// crash and must never return a packet whose payload length disagrees with
// the framing.
TEST(SessionEnvelope, TableDrivenBitFlipsNeverCrashOrMisframe) {
  const wire::Bytes payload{0x10, 0x20, 0x30, 0x40, 0x50};
  const wire::Bytes good = Session::encode_envelope(0, 3, 4, payload);
  std::size_t rejected = 0;
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      wire::Bytes flipped = good;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      auto pkt = Session::decode_envelope(flipped.data(), flipped.size());
      if (!pkt.has_value()) {
        ++rejected;
        continue;
      }
      EXPECT_EQ(pkt->payload.size(), payload.size())
          << "byte " << byte << " bit " << bit;
    }
  }
  // Everything in the magic/version/length region must have been rejected.
  EXPECT_GE(rejected, (4 + 1 + 4) * 8u);

  // 2 is the previous release: same envelope layout, but its token-link
  // frames carry the old seal, so a mixed cohort must fail at the envelope.
  for (int version : {0, 1, 2, 17, 255}) {
    wire::Bytes d = good;
    d[4] = static_cast<std::uint8_t>(version);
    EXPECT_FALSE(Session::decode_envelope(d.data(), d.size()))
        << "accepted version " << version;
  }

  // Truncation table: every prefix of a valid datagram is rejected.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(Session::decode_envelope(good.data(), len))
        << "accepted truncated length " << len;
  }
}

// -- admit(): classification + learning policy ------------------------------

Session::Address addr_of(std::uint8_t tag) {
  Session::Address a(8, 0);
  a[0] = tag;
  return a;
}

TEST(SessionAdmit, ClassifiesMalformedWrongShardAndAccept) {
  Session s(SessionConfig{1, 0, true});
  Packet out;

  const wire::Bytes junk{0xBA, 0xD0, 0xBA, 0xD0, 0xBA, 0xD0};
  EXPECT_EQ(s.admit(junk.data(), junk.size(), nullptr, 0, &out),
            Session::Verdict::kMalformed);

  const wire::Bytes foreign = Session::encode_envelope(5, 2, 1, {1});
  EXPECT_EQ(s.admit(foreign.data(), foreign.size(), nullptr, 0, &out),
            Session::Verdict::kWrongShard);

  const wire::Bytes ok = Session::encode_envelope(0, 2, 1, {1, 2});
  EXPECT_EQ(s.admit(ok.data(), ok.size(), nullptr, 0, &out),
            Session::Verdict::kAccept);
  EXPECT_EQ(out.src, 2u);
  EXPECT_EQ(out.dst, 1u);
  EXPECT_EQ(out.payload, (wire::Bytes{1, 2}));
}

TEST(SessionAdmit, LearnsAndRefreshesRoutesFromAcceptedDatagrams) {
  Session s(SessionConfig{1, 0, true});
  Packet out;
  const wire::Bytes from_2 = Session::encode_envelope(0, 2, 1, {1});

  // First contact installs the route.
  const Session::Address a1 = addr_of(0xAA);
  EXPECT_FALSE(s.has_route(2));
  ASSERT_EQ(s.admit(from_2.data(), from_2.size(), a1.data(), a1.size(), &out),
            Session::Verdict::kAccept);
  ASSERT_TRUE(s.has_route(2));
  EXPECT_EQ(*s.route(2), a1);
  EXPECT_EQ(s.stats().learned, 1u);

  // Same source address again: no rebind.
  ASSERT_EQ(s.admit(from_2.data(), from_2.size(), a1.data(), a1.size(), &out),
            Session::Verdict::kAccept);
  EXPECT_EQ(s.stats().learned, 1u);

  // The peer respawned elsewhere: the route follows it.
  const Session::Address a2 = addr_of(0xBB);
  ASSERT_EQ(s.admit(from_2.data(), from_2.size(), a2.data(), a2.size(), &out),
            Session::Verdict::kAccept);
  EXPECT_EQ(*s.route(2), a2);
  EXPECT_EQ(s.stats().learned, 2u);
}

TEST(SessionAdmit, NeverLearnsSelfForeignShardsOrWithoutAnAddress) {
  Session s(SessionConfig{1, 0, true});
  Packet out;
  const Session::Address a = addr_of(0xCC);

  // Own id: a datagram claiming to be from self must not install a route.
  const wire::Bytes from_self = Session::encode_envelope(0, 1, 1, {1});
  ASSERT_EQ(
      s.admit(from_self.data(), from_self.size(), a.data(), a.size(), &out),
      Session::Verdict::kAccept);
  EXPECT_FALSE(s.has_route(1));

  // Foreign shard: well-formed, but the same node id legitimately exists
  // in every shard — its address must never be learned.
  const wire::Bytes foreign = Session::encode_envelope(7, 3, 1, {1});
  EXPECT_EQ(s.admit(foreign.data(), foreign.size(), a.data(), a.size(), &out),
            Session::Verdict::kWrongShard);
  EXPECT_FALSE(s.has_route(3));

  // No usable source address: accepted, not learned.
  const wire::Bytes from_4 = Session::encode_envelope(0, 4, 1, {1});
  EXPECT_EQ(s.admit(from_4.data(), from_4.size(), nullptr, 0, &out),
            Session::Verdict::kAccept);
  EXPECT_FALSE(s.has_route(4));

  EXPECT_EQ(s.stats().learned, 0u);
}

TEST(SessionAdmit, LearningCanBeDisabled) {
  Session s(SessionConfig{1, 0, false});
  Packet out;
  const Session::Address a = addr_of(0xDD);
  const wire::Bytes from_2 = Session::encode_envelope(0, 2, 1, {1});
  ASSERT_EQ(s.admit(from_2.data(), from_2.size(), a.data(), a.size(), &out),
            Session::Verdict::kAccept);
  EXPECT_FALSE(s.has_route(2));
}

TEST(SessionRoutes, SetRouteOverridesAndRouteReturnsNullWhenUnknown) {
  Session s(SessionConfig{1, 0, true});
  EXPECT_EQ(s.route(9), nullptr);
  s.set_route(9, addr_of(0x01));
  ASSERT_NE(s.route(9), nullptr);
  EXPECT_EQ(*s.route(9), addr_of(0x01));
  s.set_route(9, addr_of(0x02));
  EXPECT_EQ(*s.route(9), addr_of(0x02));
}

}  // namespace
}  // namespace ssr::net
