// Loopback exercises of the UDP transport: two in-process endpoints on
// real sockets exchange token-link frames, and hostile datagrams (garbage,
// truncations, wrong version, unknown destination) are dropped without
// crashing — the same garbage-tolerance contract the simulated channels
// enforce on the decode paths.
#include "net/udp_transport.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include "dlink/token_link.hpp"
#include "net/session.hpp"

namespace ssr::net {
namespace {

UdpTransportConfig self_only(NodeId id) {
  UdpTransportConfig cfg;
  cfg.self = id;
  cfg.peers[id] = UdpEndpoint{"127.0.0.1", 0};  // OS-assigned port
  return cfg;
}

/// Polls both endpoints until `pred` holds or `wall_ms` elapses.
template <class Pred>
bool pump(UdpTransport& a, UdpTransport& b, Pred pred, int wall_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(wall_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    a.poll_once(kMsec);
    b.poll_once(kMsec);
  }
  return pred();
}

// The envelope codec itself (roundtrip, bit-flip/truncation/version-skew
// sweeps) is covered in tests/udp/session_test.cpp — the codec lives in
// net::Session now; this file exercises the socket datapath above it.

// The hostile-envelope sweep through a real socket: hostile datagrams
// only ever move the drop counters, and delivery keeps working afterwards.
TEST(UdpTransport, HostileDatagramSweepCountsCleanDrops) {
  UdpTransport t(self_only(1));
  std::size_t delivered = 0;
  t.attach(1, [&](const Packet&) { ++delivered; });

  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(t.local_port());
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const wire::Bytes good = Session::encode_envelope(5, 1, {1, 2, 3});

  // One datagram per magic/version-byte bit flip (all must drop as
  // malformed — a flipped src/dst would decode fine), plus two truncations.
  std::size_t fired = 0;
  for (std::size_t byte = 0; byte < 4 + 1; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      wire::Bytes d = good;
      d[byte] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_EQ(::sendto(raw, d.data(), d.size(), 0,
                         reinterpret_cast<sockaddr*>(&to), sizeof(to)),
                static_cast<ssize_t>(d.size()));
      ++fired;
    }
  }
  for (std::size_t cut : {1u, 7u}) {
    wire::Bytes d = good;
    d.resize(d.size() - cut);
    ASSERT_EQ(::sendto(raw, d.data(), d.size(), 0,
                       reinterpret_cast<sockaddr*>(&to), sizeof(to)),
              static_cast<ssize_t>(d.size()));
    ++fired;
  }
  ::close(raw);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline &&
         t.stats().dropped_malformed < fired) {
    t.poll_once(kMsec);
  }
  EXPECT_EQ(t.stats().dropped_malformed, fired);
  EXPECT_EQ(t.stats().dropped_unattached, 0u);
  EXPECT_EQ(delivered, 0u);

  t.send(1, 1, wire::Bytes{9});
  const auto deadline2 =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline2 && delivered == 0) {
    t.poll_once(kMsec);
  }
  EXPECT_EQ(delivered, 1u);
}

TEST(UdpTransport, BlockedPeerFilterCutsBothDirections) {
  UdpTransport a(self_only(1)), b(self_only(2));
  a.set_peer(2, UdpEndpoint{"127.0.0.1", b.local_port()});
  b.set_peer(1, UdpEndpoint{"127.0.0.1", a.local_port()});
  std::size_t a_got = 0, b_got = 0;
  a.attach(1, [&](const Packet&) { ++a_got; });
  b.attach(2, [&](const Packet&) { ++b_got; });

  a.set_blocked({2});
  a.send(1, 2, wire::Bytes{1});       // suppressed at the sender
  b.send(2, 1, wire::Bytes{2});       // dropped at a's receive side
  pump(a, b, [&] { return a.stats().filtered_in >= 1; }, 2000);
  EXPECT_EQ(a.stats().filtered_out, 1u);
  EXPECT_EQ(a.stats().filtered_in, 1u);
  EXPECT_EQ(a_got, 0u);
  EXPECT_EQ(b_got, 0u);

  // Healing the filter restores both directions.
  a.set_blocked({});
  a.send(1, 2, wire::Bytes{3});
  b.send(2, 1, wire::Bytes{4});
  EXPECT_TRUE(pump(a, b, [&] { return a_got >= 1 && b_got >= 1; }, 2000));
}

TEST(UdpTransport, LearnsPeerAddressFromIncomingDatagrams) {
  // b starts with no route to a (a's entry would normally come from the
  // peers file); one well-formed datagram from a teaches it.
  UdpTransport a(self_only(1)), b(self_only(2));
  a.set_peer(2, UdpEndpoint{"127.0.0.1", b.local_port()});
  std::size_t a_got = 0, b_got = 0;
  a.attach(1, [&](const Packet&) { ++a_got; });
  b.attach(2, [&](const Packet&) { ++b_got; });

  EXPECT_FALSE(b.has_peer(1));
  a.send(1, 2, wire::Bytes{7});
  ASSERT_TRUE(pump(a, b, [&] { return b_got >= 1; }, 2000));
  EXPECT_TRUE(b.has_peer(1));

  b.send(2, 1, wire::Bytes{8});  // reply over the learned route
  EXPECT_TRUE(pump(a, b, [&] { return a_got >= 1; }, 2000));
}

TEST(UdpTransport, DeliversBetweenTwoEndpoints) {
  UdpTransport a(self_only(1)), b(self_only(2));
  a.set_peer(2, UdpEndpoint{"127.0.0.1", b.local_port()});
  b.set_peer(1, UdpEndpoint{"127.0.0.1", a.local_port()});

  std::vector<Packet> got;
  b.attach(2, [&](const Packet& p) { got.push_back(p); });
  a.send(1, 2, wire::Bytes{42});
  ASSERT_TRUE(pump(a, b, [&] { return !got.empty(); }, 2000));
  EXPECT_EQ(got[0].src, 1u);
  EXPECT_EQ(got[0].payload, wire::Bytes{42});
}

TEST(UdpTransport, TokenLinkPairCompletesRoundsOverSockets) {
  UdpTransport ta(self_only(1)), tb(self_only(2));
  ta.set_peer(2, UdpEndpoint{"127.0.0.1", tb.local_port()});
  tb.set_peer(1, UdpEndpoint{"127.0.0.1", ta.local_port()});

  dlink::LinkConfig lc;
  lc.retransmit_period = 2 * kMsec;  // wall clock now — pace for a real loop
  lc.threshold = 2;

  std::vector<wire::Bytes> a_outbox{{10}, {11}, {12}};
  std::vector<wire::Bytes> b_got;
  auto pop = [&]() -> wire::Bytes {
    if (a_outbox.empty()) return {};
    wire::Bytes out = a_outbox.front();
    a_outbox.erase(a_outbox.begin());
    return out;
  };
  dlink::TokenLink a(
      ta, Rng(1), lc, 1, 2, pop, [](const wire::Bytes&) {}, [] {});
  dlink::TokenLink b(
      tb, Rng(2), lc, 2, 1, [] { return wire::Bytes{}; },
      [&](const wire::Bytes& d) {
        if (!d.empty()) b_got.push_back(d);
      },
      [] {});
  ta.attach(1, [&](const Packet& p) {
    auto f = dlink::FrameView::parse(p.payload);
    if (f) a.handle_frame(*f);
  });
  tb.attach(2, [&](const Packet& p) {
    auto f = dlink::FrameView::parse(p.payload);
    if (f) b.handle_frame(*f);
  });
  a.start();
  b.start();

  ASSERT_TRUE(pump(ta, tb, [&] { return b_got.size() >= 3; }, 10000))
      << "rounds=" << a.stats().rounds_completed
      << " cleans=" << a.stats().cleans_completed;
  EXPECT_EQ(b_got[0], wire::Bytes{10});
  EXPECT_EQ(b_got[1], wire::Bytes{11});
  EXPECT_EQ(b_got[2], wire::Bytes{12});
  EXPECT_GE(a.stats().cleans_completed, 1u);
  // The third payload is delivered inside round 3, before its acks close
  // the round on the sender — so only 2 rounds are guaranteed complete.
  EXPECT_GE(a.stats().rounds_completed, 2u);
}

TEST(UdpTransport, CorruptedDatagramsAreDroppedNotFatal) {
  UdpTransport t(self_only(1));
  std::size_t delivered = 0;
  t.attach(1, [&](const Packet&) { ++delivered; });

  // Fire raw garbage at the transport's port from a plain socket.
  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(t.local_port());
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const wire::Bytes junk{0xFF, 0x00, 0xAB, 0xCD, 0xEF, 0x12, 0x34};
  const wire::Bytes truncated = [&] {
    wire::Bytes env = Session::encode_envelope(5, 1, {1, 2, 3});
    env.resize(env.size() - 2);
    return env;
  }();
  const wire::Bytes unknown_dst = Session::encode_envelope(5, 99, {1});
  for (const wire::Bytes* d : {&junk, &truncated, &unknown_dst}) {
    ASSERT_EQ(::sendto(raw, d->data(), d->size(), 0,
                       reinterpret_cast<sockaddr*>(&to), sizeof(to)),
              static_cast<ssize_t>(d->size()));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline &&
         t.stats().dropped_malformed + t.stats().dropped_unattached < 3) {
    t.poll_once(kMsec);
  }
  ::close(raw);
  EXPECT_EQ(t.stats().dropped_malformed, 2u);
  EXPECT_EQ(t.stats().dropped_unattached, 1u);
  EXPECT_EQ(delivered, 0u);

  // The transport still works after eating garbage.
  t.send(1, 1, wire::Bytes{9});
  const auto deadline2 =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline2 && delivered == 0) {
    t.poll_once(kMsec);
  }
  EXPECT_EQ(delivered, 1u);
}

TEST(UdpTransport, TimersFireInOrderAndCancelledOnesDoNot) {
  UdpTransport t(self_only(1));
  std::vector<int> fired;
  t.schedule_after(10 * kMsec, [&] { fired.push_back(2); });
  t.schedule_after(2 * kMsec, [&] { fired.push_back(1); });
  TimerHandle cancelled =
      t.schedule_after(5 * kMsec, [&] { fired.push_back(99); });
  EXPECT_TRUE(cancelled.pending());
  cancelled.cancel();
  EXPECT_FALSE(cancelled.pending());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline && fired.size() < 2) {
    t.poll_once(5 * kMsec);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(UdpTransport, ReattachAsserts) {
  UdpTransport t(self_only(1));
  t.attach(1, [](const Packet&) {});
  EXPECT_DEATH(t.attach(1, [](const Packet&) {}), "re-attach");
  t.detach(1);
  t.attach(1, [](const Packet&) {});  // legal again after detach
}

}  // namespace
}  // namespace ssr::net
