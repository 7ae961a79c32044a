// Property sweep for the token link: in-order, no-duplicate, gap-free
// delivery of queued datagrams must hold across hostile channel settings
// (loss × duplication × capacity), as long as loss < 1 (fair communication),
// both with acks riding data copies (simulated fabrics) and with bare acks
// only (ssr_node).
#include <gtest/gtest.h>

#include <tuple>

#include "dlink/link_mux.hpp"
#include "net/sim_transport.hpp"

namespace ssr::dlink {
namespace {

struct ChannelCase {
  double loss;
  double dup;
  std::size_t capacity;
  std::uint64_t seed;
};

class LinkProperty
    : public ::testing::TestWithParam<std::tuple<ChannelCase, bool>> {};

TEST_P(LinkProperty, InOrderGapFreeDelivery) {
  const auto [param, piggyback] = GetParam();
  sim::Scheduler sched;
  net::ChannelConfig ch;
  ch.capacity = param.capacity;
  ch.loss_probability = param.loss;
  ch.duplicate_probability = param.dup;
  net::Network net(sched, Rng(param.seed), ch);
  net::SimTransport transport(net);
  MuxConfig cfg;
  cfg.link = LinkConfig::for_channel(ch);
  cfg.link.piggyback_acks = piggyback;
  cfg.datagram_queue_capacity = 64;
  LinkMux a(transport, 1, cfg, Rng(param.seed + 1));
  LinkMux b(transport, 2, cfg, Rng(param.seed + 2));
  transport.attach(1, [&](const net::Packet& p) { a.handle_packet(p); });
  transport.attach(2, [&](const net::Packet& p) { b.handle_packet(p); });

  std::vector<std::uint8_t> got;
  b.subscribe(kPortCounter, [&](NodeId, const wire::Bytes& d) {
    ASSERT_EQ(d.size(), 1u);
    got.push_back(d[0]);
  });
  a.connect(2);
  b.connect(1);

  // Feed 30 sequenced datagrams, retrying when the queue is full.
  std::uint8_t next = 0;
  const std::uint8_t total = 30;
  while (next < total && sched.now() < 600 * kSec) {
    if (a.send_datagram(kPortCounter, 2, {next})) {
      ++next;
    } else {
      sched.run_for(50 * kMsec);
    }
  }
  ASSERT_EQ(next, total) << "could not enqueue the workload";
  sched.run_until(sched.now() + 600 * kSec);

  ASSERT_EQ(got.size(), static_cast<std::size_t>(total))
      << "loss=" << param.loss << " dup=" << param.dup
      << " piggyback=" << piggyback;
  for (std::uint8_t i = 0; i < total; ++i) {
    EXPECT_EQ(got[i], i) << "order broken at " << int(i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Channels, LinkProperty,
    ::testing::Combine(
        ::testing::Values(ChannelCase{0.0, 0.0, 3, 11},
                          ChannelCase{0.1, 0.0, 3, 12},
                          ChannelCase{0.3, 0.05, 3, 13},
                          ChannelCase{0.05, 0.3, 3, 14},
                          ChannelCase{0.2, 0.2, 2, 15},
                          ChannelCase{0.1, 0.1, 6, 16},
                          ChannelCase{0.5, 0.1, 3, 17}),
        ::testing::Bool()));

}  // namespace
}  // namespace ssr::dlink
