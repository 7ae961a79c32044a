#include "dlink/token_link.hpp"

#include <algorithm>
#include <utility>

#include "net/channel.hpp"
#include "util/assert.hpp"

namespace ssr::dlink {

LinkConfig LinkConfig::for_channel(const net::ChannelConfig& ch) {
  LinkConfig cfg;
  const SimTime round_trip = ch.min_delay + ch.max_delay;
  cfg.retransmit_period = std::max<SimTime>(
      2 * round_trip / std::max<std::size_t>(ch.capacity, 1), 2);
  cfg.threshold = 2 * ch.capacity + 1;
  cfg.piggyback_acks = true;
  return cfg;
}

wire::Bytes Frame::encode() const {
  wire::Writer w;
  w.reserve(1 + 4 + 1 + 1 + 4 + payload.size() + 4);
  w.u8(static_cast<std::uint8_t>(kind));
  w.node_id(link_sender);
  w.u8(label);
  if (kind == FrameKind::kDataAck) w.u8(ack_label);
  if (kind == FrameKind::kData || kind == FrameKind::kDataAck) w.bytes(payload);
  w.seal();
  return w.take();
}

std::optional<FrameView> FrameView::parse(const wire::Bytes& raw) {
  wire::Reader r(raw);
  FrameView f;
  const std::uint8_t kind = r.u8();
  if (kind < 1 || kind > 6) return std::nullopt;
  f.kind = static_cast<FrameKind>(kind);
  f.link_sender = r.node_id();
  f.label = r.u8();
  if (f.kind == FrameKind::kDataAck) f.ack_label = r.u8();
  if (f.kind == FrameKind::kData || f.kind == FrameKind::kDataAck) {
    f.payload = r.bytes_in_place(f.payload_size);
  }
  // The seal (last u32) covers every preceding byte: a flipped bit in a
  // value field decodes structurally but not semantically — without this,
  // corrupt_probability runs can deliver a valid-looking message with
  // different content (found by scenario_fuzz as a VS divergence).
  const std::uint32_t seal = r.u32();
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  if (seal != wire::crc32c(raw.data(), raw.size() - 4)) return std::nullopt;
  return f;
}

wire::Bytes FrameView::copy_payload() const {
  wire::Bytes out = wire::BufferPool::local().acquire();
  // ssr-lint: allow(hot-path-alloc): assign into a pooled buffer's sticky capacity.
  out.assign(payload, payload + payload_size);
  return out;
}

std::optional<Frame> Frame::decode(const wire::Bytes& raw) {
  const auto v = FrameView::parse(raw);
  if (!v) return std::nullopt;
  Frame f;
  f.kind = v->kind;
  f.link_sender = v->link_sender;
  f.label = v->label;
  f.ack_label = v->ack_label;
  if (f.kind == FrameKind::kData || f.kind == FrameKind::kDataAck) {
    f.payload = v->copy_payload();
  }
  return f;
}

wire::Bytes encode_bundle(const std::vector<BundleItem>& items) {
  wire::Writer w;
  std::size_t total = 1;
  for (const auto& item : items) total += 1 + 1 + 4 + item.data.size();
  w.reserve(total);
  w.u8(static_cast<std::uint8_t>(items.size()));
  for (const auto& item : items) {
    w.u8(item.port);
    w.boolean(item.is_state);
    w.bytes(item.data);
  }
  return w.take();
}

bool decode_bundle(const wire::Bytes& raw, std::vector<BundleItem>& out) {
  out.clear();
  wire::Reader r(raw);
  const std::uint8_t n = r.u8();
  out.reserve(n);
  for (std::uint8_t i = 0; i < n; ++i) {
    BundleItem item;
    item.port = r.u8();
    item.is_state = r.boolean();
    item.data = r.bytes();
    if (!r.ok()) return false;
    // ssr-lint: allow(hot-path-alloc): decode scratch growth; buffers inside are pooled.
    out.push_back(std::move(item));
  }
  return r.ok() && r.exhausted();
}

std::optional<std::vector<BundleItem>> decode_bundle(const wire::Bytes& raw) {
  std::vector<BundleItem> items;
  if (!decode_bundle(raw, items)) return std::nullopt;
  return items;
}

TokenLink::TokenLink(net::Transport& transport, Rng rng, LinkConfig cfg,
                     NodeId self, NodeId peer, ComposeFn compose,
                     DeliverFn deliver, HeartbeatFn heartbeat)
    : transport_(transport),
      rng_(rng),
      cfg_(cfg),
      self_(self),
      peer_(peer),
      compose_(std::move(compose)),
      deliver_(std::move(deliver)),
      heartbeat_(std::move(heartbeat)) {
  SSR_ASSERT(cfg_.label_domain >= 4, "label domain too small");
  rx_clean_ = !cfg_.strict_clean;
  rx_recent_.reserve(cfg_.label_domain / 2u);
}

void TokenLink::start() {
  if (tx_state_ != TxState::kIdle) return;
  down_ = false;
  begin_cleaning();
  arm_timer();
}

void TokenLink::begin_cleaning() {
  tx_state_ = TxState::kCleaning;
  clean_nonce_ = static_cast<std::uint8_t>(rng_.next_below(cfg_.label_domain));
  acks_seen_ = 0;
  transmit_current();
}

void TokenLink::shutdown() {
  timer_.cancel();
  tx_state_ = TxState::kIdle;
  down_ = true;  // a crashed endpoint takes no further steps, not even acks
}

void TokenLink::arm_timer() {
  timer_.cancel();
  // Small jitter keeps links from lock-stepping in the simulation.
  const SimTime jitter = rng_.next_below(cfg_.retransmit_period / 4 + 1);
  timer_ = transport_.schedule_after(cfg_.retransmit_period + jitter,
                                     [this]() { on_timer(); });
}

void TokenLink::on_timer() {
  if (tx_state_ == TxState::kIdle) return;
  transmit_current();
  arm_timer();
}

void TokenLink::transmit_current(std::optional<std::uint8_t> ack) {
  // Encoded in place (byte-identical to Frame::encode) so the every-round
  // retransmission neither copies tx_payload_ into a temporary Frame nor
  // allocates: the Writer buffer comes from the pool.
  //
  // Every copy is encoded and sealed afresh from the link state on purpose.
  // A cached sealed frame hit by a transient fault would fail its CRC at
  // the receiver on every retransmission: no ack would ever come back and
  // the link would never stabilize. Re-sealing the current state is what
  // lets the retransmit timer repair a corrupted sender, so caching sealed
  // frames is not a safe optimization.
  wire::Writer w;
  w.reserve(1 + 4 + 1 + 1 + 4 + tx_payload_.size() + 4);
  if (tx_state_ == TxState::kCleaning) {
    w.u8(static_cast<std::uint8_t>(FrameKind::kClean));
    w.node_id(self_);
    w.u8(clean_nonce_);
  } else {
    const FrameKind kind = ack ? FrameKind::kDataAck : FrameKind::kData;
    w.u8(static_cast<std::uint8_t>(kind));
    w.node_id(self_);
    w.u8(tx_label_);
    if (ack) w.u8(*ack);
    w.bytes(tx_payload_);
  }
  w.seal();
  last_copy_at_ = transport_.now();
  transport_.send(self_, peer_, w.take());
}

void TokenLink::begin_round() {
  tx_label_ = static_cast<std::uint8_t>((tx_label_ + 1) % cfg_.label_domain);
  acks_seen_ = 0;
  // The previous round's payload buffer feeds the next compose.
  wire::BufferPool::local().release(std::move(tx_payload_));
  tx_payload_ = compose_();
}

bool TokenLink::count_ack(std::uint8_t label) {
  if (tx_state_ != TxState::kRunning) return false;
  if (label != tx_label_) return false;  // stale ack
  if (++acks_seen_ <= cfg_.threshold) return false;
  ++stats_.rounds_completed;
  heartbeat_();
  begin_round();
  return true;
}

void TokenLink::receive_data(const FrameView& frame, bool round_began) {
  if (!rx_clean_) {
    // Paper §3.3: a fresh endpoint must not consume possibly-stale
    // packets before the link is cleaned; the quarantine lifts only
    // after more than the round-trip capacity of cleaning probes.
    // A running sender may have counted a duplicated clean-ack and
    // stopped probing one probe short of that, so ask it to clean
    // again; otherwise it would send data that is discarded forever.
    ++stats_.stale_discarded;
    Frame reclean;
    reclean.kind = FrameKind::kReclean;
    reclean.link_sender = peer_;
    reclean.label = frame.label;
    transport_.send(self_, peer_, reclean.encode());
    if (round_began) transmit_current();
    return;
  }
  // The ack rides a copy of this side's current frame when the sender side
  // runs and its last copy left at least the reply gap ago, or when this
  // packet's own ack began a round whose first copy is due now anyway.
  const bool reply_with_copy =
      cfg_.piggyback_acks && tx_state_ == TxState::kRunning &&
      (round_began ||
       transport_.now() - last_copy_at_ >= cfg_.retransmit_period / 2);
  if (reply_with_copy) {
    transmit_current(frame.label);
    arm_timer();  // the timer covers only replies that never come
  } else {
    Frame ack;
    ack.kind = FrameKind::kAck;
    ack.link_sender = peer_;  // names the link, i.e. its sender
    ack.label = frame.label;
    transport_.send(self_, peer_, ack.encode());
    if (round_began) transmit_current();
  }
  const bool seen =
      std::find(rx_recent_.begin(), rx_recent_.end(), frame.label) !=
      rx_recent_.end();
  if (!seen) {
    // History shorter than the label domain (else fresh labels would be
    // rejected) but long enough to cover reordered stragglers. The
    // oldest label is dropped from the front.
    if (rx_recent_.size() >= cfg_.label_domain / 2u)
      rx_recent_.erase(rx_recent_.begin());
    // ssr-lint: allow(hot-path-alloc): within the constructor's reserve.
    rx_recent_.push_back(frame.label);
    ++stats_.frames_delivered;
    heartbeat_();
    // The only copy of the payload out of the packet.
    wire::Bytes payload = frame.copy_payload();
    deliver_(payload);
    wire::BufferPool::local().release(std::move(payload));
  }
}

void TokenLink::handle_frame(const FrameView& frame) {
  if (down_) return;
  switch (frame.kind) {
    case FrameKind::kData:
      // Receiver side of link (peer → self).
      if (frame.link_sender != peer_) return;
      receive_data(frame, false);
      return;
    case FrameKind::kAck:
      // Sender side of link (self → peer).
      if (frame.link_sender != self_) return;
      if (count_ack(frame.label)) transmit_current();
      return;
    case FrameKind::kDataAck:
      // Both: the ack first, since a round it completes sends its first
      // copy on this packet's reply.
      if (frame.link_sender != peer_) return;
      receive_data(frame, count_ack(frame.ack_label));
      return;
    case FrameKind::kClean: {
      if (frame.link_sender != peer_) return;
      // Reset the receiver side: everything previously in flight on this
      // link is untrusted. The sender needs > threshold CLEAN-ACKs
      // before it transmits data, and acks are only sent on probe arrival,
      // so by that point we have seen at least as many probes — any stale
      // data packet has drained from the bounded channel meanwhile.
      // The label history resets only when a *new* cleaning epoch (fresh
      // nonce) starts; straggling probes of the current epoch must not
      // reopen the window for already-delivered labels.
      if (frame.label != rx_clean_nonce_ || rx_clean_count_ == 0) {
        rx_clean_nonce_ = frame.label;
        rx_clean_count_ = 0;
        rx_recent_.clear();
      }
      ++rx_clean_count_;
      if (rx_clean_count_ > cfg_.threshold) rx_clean_ = true;
      Frame ack;
      ack.kind = FrameKind::kCleanAck;
      ack.link_sender = peer_;
      ack.label = frame.label;
      transport_.send(self_, peer_, ack.encode());
      return;
    }
    case FrameKind::kCleanAck: {
      if (frame.link_sender != self_ || tx_state_ != TxState::kCleaning) return;
      if (frame.label != clean_nonce_) return;
      if (++acks_seen_ > cfg_.threshold) {
        ++stats_.cleans_completed;
        tx_state_ = TxState::kRunning;
        tx_label_ = static_cast<std::uint8_t>(rng_.next_below(cfg_.label_domain));
        if (tx_payload_.empty()) {
          begin_round();
        } else {
          // A re-clean resends the round the receiver discarded, so the
          // datagrams composed into it are not lost.
          acks_seen_ = 0;
        }
        transmit_current();
      }
      return;
    }
    case FrameKind::kReclean: {
      // The receiver discarded our current data unseen: clean again. The
      // echoed label filters requests that answered an earlier round.
      if (frame.link_sender != self_ || tx_state_ != TxState::kRunning) return;
      if (frame.label != tx_label_) return;
      begin_cleaning();
      return;
    }
  }
}

}  // namespace ssr::dlink
