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

/// A datagram in the retired v3 layout: version byte 3 and a u32 fleet tag
/// between it and the source id, so a 21-byte header.
wire::Bytes v3_datagram(NodeId src, NodeId dst, const wire::Bytes& payload) {
  wire::Writer w;
  w.u32(Session::kMagic);
  w.u8(3);
  w.u32(0);
  w.node_id(src);
  w.node_id(dst);
  w.bytes(payload);
  return w.take();
}

TEST(SessionEnvelope, Roundtrip) {
  const wire::Bytes payload{1, 2, 3, 4};
  const wire::Bytes datagram = Session::encode_envelope(7, 9, payload);
  // v4: magic u32 | version u8 | src u32 | dst u32 | length u32 | payload.
  EXPECT_EQ(Session::kHeaderBytes, 17u);
  EXPECT_EQ(datagram.size(), 17u + payload.size());
  EXPECT_EQ(datagram[4], 4u);
  auto pkt = Session::decode_envelope(datagram.data(), datagram.size());
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->src, 7u);
  EXPECT_EQ(pkt->dst, 9u);
  EXPECT_EQ(pkt->payload, payload);
}

// A cohort is deployed as one build: a datagram from a v3 node is
// malformed, and its claimed source is never learned.
TEST(SessionEnvelope, RejectsTheV3Layout) {
  const wire::Bytes payload{1, 2, 3, 4};
  const wire::Bytes old = v3_datagram(7, 9, payload);
  ASSERT_EQ(old.size(), 21u + payload.size());
  EXPECT_FALSE(Session::decode_envelope(old.data(), old.size()).has_value());

  Session s(SessionConfig{9, true});
  Packet out;
  Session::Address a(8, 0xAB);
  EXPECT_FALSE(s.admit(old.data(), old.size(), a.data(), a.size(), &out));
  EXPECT_FALSE(s.has_route(7));
}

TEST(SessionEnvelope, RejectsGarbageAndTruncation) {
  EXPECT_FALSE(Session::decode_envelope(nullptr, 0).has_value());
  const wire::Bytes junk{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3};
  EXPECT_FALSE(Session::decode_envelope(junk.data(), junk.size()));
  wire::Bytes good = Session::encode_envelope(1, 2, {5, 6, 7});
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
  const wire::Bytes good = Session::encode_envelope(3, 4, payload);
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

  // 3 is the previous release (it carried a fleet tag) and 2 sealed its
  // token-link frames the old way: a mixed cohort must fail at the envelope.
  for (int version : {0, 1, 2, 3, 17, 255}) {
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

TEST(SessionAdmit, ClassifiesMalformedAndAccept) {
  Session s(SessionConfig{1, true});
  Packet out;

  const wire::Bytes junk{0xBA, 0xD0, 0xBA, 0xD0, 0xBA, 0xD0};
  EXPECT_FALSE(s.admit(junk.data(), junk.size(), nullptr, 0, &out));

  const wire::Bytes ok = Session::encode_envelope(2, 1, {1, 2});
  EXPECT_TRUE(s.admit(ok.data(), ok.size(), nullptr, 0, &out));
  EXPECT_EQ(out.src, 2u);
  EXPECT_EQ(out.dst, 1u);
  EXPECT_EQ(out.payload, (wire::Bytes{1, 2}));
}

TEST(SessionAdmit, LearnsAndRefreshesRoutesFromAcceptedDatagrams) {
  Session s(SessionConfig{1, true});
  Packet out;
  const wire::Bytes from_2 = Session::encode_envelope(2, 1, {1});

  // First contact installs the route.
  const Session::Address a1 = addr_of(0xAA);
  EXPECT_FALSE(s.has_route(2));
  ASSERT_TRUE(
      s.admit(from_2.data(), from_2.size(), a1.data(), a1.size(), &out));
  ASSERT_TRUE(s.has_route(2));
  EXPECT_EQ(*s.route(2), a1);
  EXPECT_EQ(s.stats().learned, 1u);

  // Same source address again: no rebind.
  ASSERT_TRUE(
      s.admit(from_2.data(), from_2.size(), a1.data(), a1.size(), &out));
  EXPECT_EQ(s.stats().learned, 1u);

  // The peer respawned elsewhere: the route follows it.
  const Session::Address a2 = addr_of(0xBB);
  ASSERT_TRUE(
      s.admit(from_2.data(), from_2.size(), a2.data(), a2.size(), &out));
  EXPECT_EQ(*s.route(2), a2);
  EXPECT_EQ(s.stats().learned, 2u);
}

TEST(SessionAdmit, NeverLearnsSelfOrWithoutAnAddress) {
  Session s(SessionConfig{1, true});
  Packet out;
  const Session::Address a = addr_of(0xCC);

  // Own id: a datagram claiming to be from self must not install a route.
  const wire::Bytes from_self = Session::encode_envelope(1, 1, {1});
  ASSERT_TRUE(
      s.admit(from_self.data(), from_self.size(), a.data(), a.size(), &out));
  EXPECT_FALSE(s.has_route(1));

  // No usable source address: accepted, not learned.
  const wire::Bytes from_4 = Session::encode_envelope(4, 1, {1});
  EXPECT_TRUE(s.admit(from_4.data(), from_4.size(), nullptr, 0, &out));
  EXPECT_FALSE(s.has_route(4));

  EXPECT_EQ(s.stats().learned, 0u);
}

TEST(SessionAdmit, LearningCanBeDisabled) {
  Session s(SessionConfig{1, false});
  Packet out;
  const Session::Address a = addr_of(0xDD);
  const wire::Bytes from_2 = Session::encode_envelope(2, 1, {1});
  ASSERT_TRUE(
      s.admit(from_2.data(), from_2.size(), a.data(), a.size(), &out));
  EXPECT_FALSE(s.has_route(2));
}

TEST(SessionRoutes, SetRouteOverridesAndRouteReturnsNullWhenUnknown) {
  Session s(SessionConfig{1, true});
  EXPECT_EQ(s.route(9), nullptr);
  s.set_route(9, addr_of(0x01));
  ASSERT_NE(s.route(9), nullptr);
  EXPECT_EQ(*s.route(9), addr_of(0x01));
  s.set_route(9, addr_of(0x02));
  EXPECT_EQ(*s.route(9), addr_of(0x02));
}

}  // namespace
}  // namespace ssr::net
