#include "dlink/link_mux.hpp"

#include <gtest/gtest.h>

#include "net/sim_transport.hpp"

namespace ssr::dlink {
namespace {

struct MuxPair {
  sim::Scheduler sched;
  net::Network net;
  net::SimTransport transport;
  MuxConfig cfg;
  std::unique_ptr<LinkMux> a, b;

  MuxPair() : net(sched, Rng(31), channel_config()), transport(net) {
    cfg.link = LinkConfig::for_channel(channel_config());
    a = std::make_unique<LinkMux>(transport, 1, cfg, Rng(41));
    b = std::make_unique<LinkMux>(transport, 2, cfg, Rng(42));
    transport.attach(1, [this](const net::Packet& p) { a->handle_packet(p); });
    transport.attach(2, [this](const net::Packet& p) { b->handle_packet(p); });
  }

  static net::ChannelConfig channel_config() {
    net::ChannelConfig ch;
    ch.capacity = 3;
    ch.loss_probability = 0.05;
    return ch;
  }
};

TEST(LinkMux, StateSlotDeliversLatest) {
  MuxPair m;
  std::vector<wire::Bytes> got;
  m.b->subscribe(kPortRecSA,
                 [&](NodeId from, const wire::Bytes& d) {
                   EXPECT_EQ(from, 1u);
                   got.push_back(d);
                 });
  m.a->connect(2);
  m.b->connect(1);
  m.a->publish_state(kPortRecSA, 2, wire::Bytes{1});
  m.sched.run_until(10 * kSec);
  m.a->publish_state(kPortRecSA, 2, wire::Bytes{2});
  m.sched.run_until(20 * kSec);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.back(), wire::Bytes{2});  // latest state wins
}

TEST(LinkMux, DatagramsDeliverInOrder) {
  MuxPair m;
  std::vector<wire::Bytes> got;
  m.b->subscribe(kPortCounter,
                 [&](NodeId, const wire::Bytes& d) { got.push_back(d); });
  m.a->connect(2);
  m.b->connect(1);
  for (std::uint8_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(m.a->send_datagram(kPortCounter, 2, {i}));
  }
  m.sched.run_until(40 * kSec);
  ASSERT_EQ(got.size(), 6u);
  for (std::uint8_t i = 1; i <= 6; ++i) EXPECT_EQ(got[i - 1], wire::Bytes{i});
}

TEST(LinkMux, DatagramQueueBounded) {
  MuxPair m;
  m.a->connect(2);
  bool saw_reject = false;
  for (int i = 0; i < 100; ++i) {
    if (!m.a->send_datagram(kPortCounter, 2, wire::Bytes{1})) {
      saw_reject = true;
      break;
    }
  }
  EXPECT_TRUE(saw_reject);
}

TEST(LinkMux, MultiplePortsAreIndependent) {
  MuxPair m;
  wire::Bytes got_a, got_b;
  m.b->subscribe(kPortRecSA, [&](NodeId, const wire::Bytes& d) { got_a = d; });
  m.b->subscribe(kPortLabel, [&](NodeId, const wire::Bytes& d) { got_b = d; });
  m.a->connect(2);
  m.b->connect(1);
  m.a->publish_state(kPortRecSA, 2, wire::Bytes{10});
  m.a->publish_state(kPortLabel, 2, wire::Bytes{20});
  m.sched.run_until(15 * kSec);
  EXPECT_EQ(got_a, wire::Bytes{10});
  EXPECT_EQ(got_b, wire::Bytes{20});
}

TEST(LinkMux, AutoConnectOnFirstContact) {
  MuxPair m;
  wire::Bytes got;
  m.b->subscribe(kPortRecSA, [&](NodeId, const wire::Bytes& d) { got = d; });
  // Only `a` initiates; `b` must create its endpoints on first packet.
  m.a->connect(2);
  m.a->publish_state(kPortRecSA, 2, wire::Bytes{7});
  m.sched.run_until(15 * kSec);
  EXPECT_EQ(got, wire::Bytes{7});
  EXPECT_TRUE(m.b->peers().contains(1));
}

TEST(LinkMux, ClearStateStopsCarrying) {
  MuxPair m;
  int deliveries = 0;
  m.b->subscribe(kPortRecSA, [&](NodeId, const wire::Bytes&) { ++deliveries; });
  m.a->connect(2);
  m.b->connect(1);
  m.a->publish_state(kPortRecSA, 2, wire::Bytes{1});
  m.sched.run_until(10 * kSec);
  const int before = deliveries;
  EXPECT_GT(before, 0);
  m.a->clear_state(kPortRecSA, 2);
  m.sched.run_until(20 * kSec);
  // A handful may straggle from in-flight frames; then it must stop.
  const int after_clear = deliveries;
  m.sched.run_until(30 * kSec);
  EXPECT_LE(deliveries - after_clear, 1);
  (void)before;
}

TEST(LinkMux, ShutdownSilencesNode) {
  MuxPair m;
  m.a->connect(2);
  m.b->connect(1);
  m.a->publish_state(kPortRecSA, 2, wire::Bytes{1});
  m.sched.run_until(5 * kSec);
  m.a->shutdown();
  const auto sent = m.net.channel(1, 2).stats().sent;
  m.sched.run_until(15 * kSec);
  EXPECT_EQ(m.net.channel(1, 2).stats().sent, sent);
}

TEST(LinkMux, HeartbeatsFlowBothWays) {
  MuxPair m;
  int beats_a = 0, beats_b = 0;
  m.a->set_heartbeat_handler([&](NodeId peer) {
    EXPECT_EQ(peer, 2u);
    ++beats_a;
  });
  m.b->set_heartbeat_handler([&](NodeId) { ++beats_b; });
  m.a->connect(2);
  m.b->connect(1);
  m.sched.run_until(20 * kSec);
  EXPECT_GT(beats_a, 5);
  EXPECT_GT(beats_b, 5);
}

}  // namespace
}  // namespace ssr::dlink
