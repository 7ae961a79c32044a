#include "dlink/token_link.hpp"

#include <gtest/gtest.h>

#include "net/sim_transport.hpp"

namespace ssr::dlink {
namespace {

TEST(Frame, EncodeDecodeRoundtrip) {
  Frame f;
  f.kind = FrameKind::kData;
  f.link_sender = 3;
  f.label = 9;
  f.payload = wire::Bytes{1, 2, 3};
  auto decoded = Frame::decode(f.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, FrameKind::kData);
  EXPECT_EQ(decoded->link_sender, 3u);
  EXPECT_EQ(decoded->label, 9);
  EXPECT_EQ(decoded->payload, (wire::Bytes{1, 2, 3}));
}

TEST(Frame, DataAckRoundtrip) {
  Frame f;
  f.kind = FrameKind::kDataAck;
  f.link_sender = 3;
  f.label = 9;
  f.ack_label = 11;
  f.payload = wire::Bytes{1, 2, 3};
  const wire::Bytes raw = f.encode();
  auto decoded = Frame::decode(raw);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, FrameKind::kDataAck);
  EXPECT_EQ(decoded->link_sender, 3u);
  EXPECT_EQ(decoded->label, 9);
  EXPECT_EQ(decoded->ack_label, 11);
  EXPECT_EQ(decoded->payload, (wire::Bytes{1, 2, 3}));
  // The ack label sits inside the seal: kind, link_sender, label, ack_label.
  for (int bit = 0; bit < 8; ++bit) {
    wire::Bytes flipped = raw;
    flipped[1 + 4 + 1] ^= static_cast<std::uint8_t>(1u << bit);
    EXPECT_FALSE(Frame::decode(flipped).has_value()) << bit;
  }
}

TEST(Frame, ControlKindsHaveNoPayload) {
  for (FrameKind kind : {FrameKind::kAck, FrameKind::kClean,
                         FrameKind::kCleanAck, FrameKind::kReclean}) {
    Frame f;
    f.kind = kind;
    f.link_sender = 1;
    f.label = 2;
    auto decoded = Frame::decode(f.encode());
    ASSERT_TRUE(decoded.has_value()) << int(kind);
    EXPECT_EQ(decoded->kind, kind);
    EXPECT_EQ(decoded->label, 2);
    EXPECT_TRUE(decoded->payload.empty());
  }
}

TEST(Frame, GarbageRejected) {
  EXPECT_FALSE(Frame::decode(wire::Bytes{}).has_value());
  EXPECT_FALSE(Frame::decode(wire::Bytes{0}).has_value());
  EXPECT_FALSE(Frame::decode(wire::Bytes{99, 1, 2}).has_value());
  // Unknown kinds are rejected even when correctly sealed.
  for (std::uint8_t kind : {0, 7}) {
    wire::Writer w;
    w.u8(kind);
    w.node_id(1);
    w.u8(2);
    w.seal();
    EXPECT_FALSE(Frame::decode(w.take()).has_value()) << int(kind);
  }
}

TEST(Bundle, RoundtripMultipleItems) {
  std::vector<BundleItem> items;
  items.push_back({kPortRecSA, true, wire::Bytes{1}});
  items.push_back({kPortCounter, false, wire::Bytes{2, 3}});
  auto decoded = decode_bundle(encode_bundle(items));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].port, kPortRecSA);
  EXPECT_TRUE((*decoded)[0].is_state);
  EXPECT_EQ((*decoded)[1].data, (wire::Bytes{2, 3}));
  EXPECT_FALSE((*decoded)[1].is_state);
}

TEST(Bundle, TrailingGarbageRejected) {
  auto raw = encode_bundle({{kPortRecSA, true, wire::Bytes{1}}});
  raw.push_back(0xFF);
  EXPECT_FALSE(decode_bundle(raw).has_value());
}

// --- Link pair harness ------------------------------------------------------

struct LinkPair {
  sim::Scheduler sched;
  net::Network net;
  net::SimTransport transport;
  LinkConfig cfg;
  std::vector<wire::Bytes> a_outbox, b_outbox;  // next payloads to send
  std::vector<wire::Bytes> a_got, b_got;
  int a_beats = 0, b_beats = 0;
  std::unique_ptr<TokenLink> a, b;

  explicit LinkPair(net::ChannelConfig ch = make_channel())
      : LinkPair(ch, LinkConfig::for_channel(ch)) {}
  LinkPair(net::ChannelConfig ch, LinkConfig lc)
      : net(sched, Rng(7), ch), transport(net), cfg(lc) {
    a = std::make_unique<TokenLink>(
        transport, Rng(1), cfg, 1, 2, [this] { return pop(a_outbox); },
        [this](const wire::Bytes& d) { a_got_push(d); }, [this] { ++a_beats; });
    b = std::make_unique<TokenLink>(
        transport, Rng(2), cfg, 2, 1, [this] { return pop(b_outbox); },
        [this](const wire::Bytes& d) { b_got_push(d); }, [this] { ++b_beats; });
    transport.attach(1, [this](const net::Packet& p) {
      auto f = Frame::decode(p.payload);
      if (f) a->handle_frame(*f);
    });
    transport.attach(2, [this](const net::Packet& p) {
      auto f = Frame::decode(p.payload);
      if (f) b->handle_frame(*f);
    });
  }

  static net::ChannelConfig make_channel() {
    net::ChannelConfig ch;
    ch.capacity = 3;
    ch.loss_probability = 0.05;
    return ch;
  }

  wire::Bytes pop(std::vector<wire::Bytes>& box) {
    if (box.empty()) return {};
    wire::Bytes out = box.front();
    box.erase(box.begin());
    return out;
  }
  void a_got_push(const wire::Bytes& d) {
    if (!d.empty()) a_got.push_back(d);
  }
  void b_got_push(const wire::Bytes& d) {
    if (!d.empty()) b_got.push_back(d);
  }
};

TEST(TokenLink, DeliversQueuedPayloadsInOrder) {
  LinkPair lp;
  for (std::uint8_t i = 1; i <= 5; ++i) lp.a_outbox.push_back({i});
  lp.a->start();
  lp.b->start();
  lp.sched.run_until(30 * kSec);
  ASSERT_GE(lp.b_got.size(), 5u);
  for (std::uint8_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(lp.b_got[i - 1], wire::Bytes{i}) << int(i);
  }
}

TEST(TokenLink, TokenRoundsProduceHeartbeats) {
  LinkPair lp;
  lp.a->start();
  lp.b->start();
  lp.sched.run_until(20 * kSec);
  EXPECT_GT(lp.a_beats, 10);
  EXPECT_GT(lp.b_beats, 10);
  EXPECT_GT(lp.a->stats().rounds_completed, 5u);
}

TEST(TokenLink, CleaningCompletesBeforeData) {
  LinkPair lp;
  lp.a->start();
  lp.b->start();
  EXPECT_TRUE(lp.a->cleaning());
  lp.sched.run_until(20 * kSec);
  EXPECT_FALSE(lp.a->cleaning());
  EXPECT_EQ(lp.a->stats().cleans_completed, 1u);
}

TEST(TokenLink, StrictCleanDiscardsPreCleanData) {
  LinkPair lp;
  // Stale data packet sits in the channel before any cleaning.
  Frame stale;
  stale.kind = FrameKind::kData;
  stale.link_sender = 1;
  stale.label = 3;
  stale.payload = wire::Bytes{0xEE};
  lp.net.channel(1, 2).inject_packet(stale.encode());
  lp.a->start();
  lp.b->start();
  lp.sched.run_until(20 * kSec);
  for (const auto& d : lp.b_got) EXPECT_NE(d, wire::Bytes{0xEE});
  EXPECT_GT(lp.b->stats().stale_discarded, 0u);
}

// The sender counts clean-acks and the receiver counts probes against the
// same threshold, so one clean-ack that the channel duplicates ends cleaning
// when the receiver has counted only clean_threshold probes and is still
// quarantined. The receiver must send the sender back to cleaning instead of
// discarding its data forever (the bootstrap livelock).
TEST(TokenLink, DuplicatedCleanAckStillDelivers) {
  auto ch = LinkPair::make_channel();
  ch.loss_probability = 0.0;
  ch.duplicate_probability = 0.0;
  // Every clean-ack returns before the next probe leaves, so the receiver
  // has counted exactly as many probes as the sender has real acks.
  ch.min_delay = ch.max_delay = 50 * kUsec;
  LinkConfig lc = LinkConfig::for_channel(ch);
  lc.retransmit_period = 400 * kUsec;  // well above the 100 µs round trip
  LinkPair lp(ch, lc);
  bool doubled = false;
  lp.net.detach(1);
  lp.transport.attach(1, [&](const net::Packet& p) {
    auto f = Frame::decode(p.payload);
    if (!f) return;
    lp.a->handle_frame(*f);
    if (f->kind == FrameKind::kCleanAck && !doubled) {
      doubled = true;
      lp.a->handle_frame(*f);  // the same clean-ack, delivered twice
    }
  });
  lp.a_outbox.push_back({42});
  lp.a->start();
  lp.sched.run_until(5 * kSec);
  ASSERT_TRUE(doubled);
  EXPECT_GT(lp.b->stats().stale_discarded, 0u);  // cleaning did end early
  EXPECT_EQ(lp.a->stats().cleans_completed, 2u);
  ASSERT_FALSE(lp.b_got.empty());
  EXPECT_EQ(lp.b_got[0], wire::Bytes{42});
  EXPECT_GT(lp.a->stats().rounds_completed, 0u);
}

// Link b (2 ↔ 1) driven by hand over a lossless channel with a fixed delay:
// node 1 runs no link, it only records the frames b sends it.
struct ScriptedPeer {
  sim::Scheduler sched;
  net::Network net;
  net::SimTransport transport;
  LinkConfig cfg;
  std::vector<Frame> at_1;  // frames b sent, in arrival order
  std::vector<wire::Bytes> b_got;
  std::unique_ptr<TokenLink> b;

  ScriptedPeer() : net(sched, Rng(7), channel()), transport(net) {
    cfg = LinkConfig::for_channel(channel());
    cfg.strict_clean = false;  // node 1 sends no probes
    b = std::make_unique<TokenLink>(
        transport, Rng(2), cfg, 2, 1, [] { return wire::Bytes{0xB0}; },
        [this](const wire::Bytes& d) { b_got.push_back(d); }, [] {});
    transport.attach(1, [this](const net::Packet& p) {
      auto f = Frame::decode(p.payload);
      ASSERT_TRUE(f.has_value());
      at_1.push_back(*f);
    });
    transport.attach(2, [this](const net::Packet& p) {
      auto f = Frame::decode(p.payload);
      if (f) b->handle_frame(*f);
    });
  }

  static net::ChannelConfig channel() {
    net::ChannelConfig ch;
    ch.capacity = 3;
    ch.loss_probability = 0.0;
    ch.duplicate_probability = 0.0;
    ch.min_delay = ch.max_delay = 500 * kUsec;
    return ch;
  }

  static Frame frame(FrameKind kind, NodeId sender, std::uint8_t label) {
    Frame f;
    f.kind = kind;
    f.link_sender = sender;
    f.label = label;
    return f;
  }

  /// Runs until b's next data copy reaches node 1 and returns it.
  Frame next_copy() {
    const std::size_t seen = at_1.size();
    while (at_1.size() == seen || at_1.back().kind != FrameKind::kData) {
      sched.run_for(1 * kUsec);
    }
    return at_1.back();
  }

  /// Completes b's cleaning by hand and returns the first data copy b's
  /// timer sent. It arrives max_delay after it left: later than the reply
  /// gap P, and sooner than the timer, re-armed for 2P, sends again.
  Frame timer_copy() {
    b->start();
    sched.run_for(600 * kUsec);
    EXPECT_EQ(at_1.size(), 1u);  // the first cleaning probe
    for (std::size_t i = 0; i <= cfg.clean_threshold; ++i) {
      b->handle_frame(frame(FrameKind::kCleanAck, 2, at_1[0].label));
    }
    EXPECT_FALSE(b->cleaning());
    next_copy();  // sent at once when cleaning completed
    return next_copy();
  }
};

// With piggyback_acks on, one data copy is answered by exactly one packet
// that carries both the ack and a copy of the answering side's own frame,
// once that side's last copy left at least the reply gap ago; sooner, the
// answer is a bare ack.
TEST(TokenLink, DataCopyAnsweredByOneDataAck) {
  ScriptedPeer sp;
  const Frame copy = sp.timer_copy();
  ASSERT_GT(ScriptedPeer::channel().max_delay, sp.cfg.retransmit_period / 2);

  const auto sent_before = sp.net.channel(2, 1).stats().sent;
  Frame data = ScriptedPeer::frame(FrameKind::kData, 1, 5);
  data.payload = wire::Bytes{7};
  sp.b->handle_frame(data);
  EXPECT_EQ(sp.net.channel(2, 1).stats().sent, sent_before + 1);
  // The reply was b's copy: a data copy right after it gets a bare ack.
  sp.b->handle_frame(ScriptedPeer::frame(FrameKind::kData, 1, 6));
  EXPECT_EQ(sp.net.channel(2, 1).stats().sent, sent_before + 2);
  sp.sched.run_for(500 * kUsec);

  std::vector<Frame> answers;  // node 1 sends no data: these answer ours
  for (const Frame& f : sp.at_1) {
    if (f.kind == FrameKind::kDataAck || f.kind == FrameKind::kAck) {
      answers.push_back(f);
    }
  }
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0].kind, FrameKind::kDataAck);
  EXPECT_EQ(answers[0].link_sender, 2u);
  EXPECT_EQ(answers[0].label, copy.label);
  EXPECT_EQ(answers[0].ack_label, 5);
  EXPECT_EQ(answers[0].payload, copy.payload);
  EXPECT_EQ(answers[1].kind, FrameKind::kAck);
  EXPECT_EQ(answers[1].label, 6);
  ASSERT_EQ(sp.b_got.size(), 2u);
  EXPECT_EQ(sp.b_got[0], wire::Bytes{7});
}

// Each kDataAck counts as one ack of its label, so the at most `cap` stale
// ones a channel can hold cannot complete a round on their own: the round
// needs more than 2·cap + 1.
TEST(TokenLink, StaleDataAcksCannotCompleteARound) {
  ScriptedPeer sp;
  const Frame copy = sp.timer_copy();
  const std::size_t cap = ScriptedPeer::channel().capacity;
  for (std::size_t i = 0; i < cap; ++i) {
    Frame stale = ScriptedPeer::frame(FrameKind::kDataAck, 1, 9);
    stale.ack_label = copy.label;
    sp.net.channel(1, 2).inject_packet(stale.encode());
  }
  sp.sched.run_for(50 * kMsec);  // node 1 never acks b's own copies
  EXPECT_EQ(sp.net.channel(1, 2).stats().delivered, cap);
  EXPECT_EQ(sp.b->stats().rounds_completed, 0u);
  // The round completes at exactly ack_threshold + 1 matching acks.
  for (std::size_t i = cap; i < sp.cfg.ack_threshold; ++i) {
    sp.b->handle_frame(ScriptedPeer::frame(FrameKind::kAck, 2, copy.label));
  }
  EXPECT_EQ(sp.b->stats().rounds_completed, 0u);
  sp.b->handle_frame(ScriptedPeer::frame(FrameKind::kAck, 2, copy.label));
  EXPECT_EQ(sp.b->stats().rounds_completed, 1u);
}

TEST(TokenLink, SurvivesChannelGarbage) {
  LinkPair lp;
  lp.a_outbox.push_back({42});
  lp.a->start();
  lp.b->start();
  lp.net.channel(1, 2).inject_garbage(3);
  lp.net.channel(2, 1).inject_garbage(3);
  lp.sched.run_until(30 * kSec);
  ASSERT_FALSE(lp.b_got.empty());
  EXPECT_EQ(lp.b_got[0], wire::Bytes{42});
}

TEST(TokenLink, ShutdownStopsTraffic) {
  LinkPair lp;
  lp.a->start();
  lp.b->start();
  lp.sched.run_until(5 * kSec);
  lp.a->shutdown();
  lp.b->shutdown();
  const auto sent_before = lp.net.channel(1, 2).stats().sent;
  lp.sched.run_until(10 * kSec);
  EXPECT_EQ(lp.net.channel(1, 2).stats().sent, sent_before);
}

TEST(TokenLink, HighLossStillDelivers) {
  auto ch = LinkPair::make_channel();
  ch.loss_probability = 0.4;
  LinkPair lp(ch);
  for (std::uint8_t i = 1; i <= 3; ++i) lp.a_outbox.push_back({i});
  lp.a->start();
  lp.b->start();
  lp.sched.run_until(120 * kSec);
  ASSERT_GE(lp.b_got.size(), 3u);
  EXPECT_EQ(lp.b_got[0], wire::Bytes{1});
  EXPECT_EQ(lp.b_got[1], wire::Bytes{2});
  EXPECT_EQ(lp.b_got[2], wire::Bytes{3});
}

}  // namespace
}  // namespace ssr::dlink
