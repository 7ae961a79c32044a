#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "dlink/frame.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"

namespace ssr::net {
struct ChannelConfig;
}

namespace ssr::dlink {

struct LinkConfig {
  /// Pacing of retransmissions of the current frame / cleaning probe (plus
  /// up to a quarter of it in jitter). The paper needs only that every
  /// packet is sent infinitely often, so the rate is a free choice. Owners
  /// without a channel model, such as ssr_node on real sockets, set their
  /// own; for_channel() derives it from the channel (see piggyback_acks).
  SimTime retransmit_period = 400 * kUsec;
  /// "More than the total (round-trip) capacity" (paper, Section 2): a
  /// round completes on the ack after `threshold` matching acks, cleaning on
  /// the clean-ack after `threshold` matching clean-acks, and a receiver
  /// lifts its quarantine on the probe after `threshold` probes. 2·cap + 1
  /// for symmetric channels (for_channel()). Both ends of a link must agree
  /// on it: a sender that counts fewer clean-acks than its receiver counts
  /// probes leaves cleaning into a quarantine.
  std::size_t threshold = 7;
  /// Bounded ARQ label domain; must exceed 2·cap + 2 so a fresh label always
  /// eventually exists outside the channels.
  std::uint8_t label_domain = 16;
  /// A freshly created receiver discards data until the peer's cleaning
  /// probe has been observed (joining processors must not consume stale
  /// packets — paper, Section 3.3).
  bool strict_clean = true;
  /// Answer a data copy with one kDataAck — the ack plus a fresh copy of
  /// this side's own current frame — instead of a bare kAck, when this
  /// side's sender is running and its last copy left at least
  /// retransmit_period / 2 ago (the reply gap P). When the ack inside an
  /// arriving kDataAck completes this side's round, the next round's first
  /// copy rides the reply whatever the gap. Such a reply restarts the
  /// retransmit timer, which then only covers replies that never come. Each
  /// packet still carries at most one data frame and one ack per directed
  /// link, and acks still answer only data copies, so the 2·cap + 1
  /// threshold argument holds. Off by default: where a round trip is far
  /// below the gap, as on localhost sockets, every reply is answered at
  /// once, and the links would send one copy per gap instead of one per
  /// period.
  bool piggyback_acks = false;

  /// The link timing a bounded channel implies: the threshold as above,
  /// piggybacked acks, and a retransmit period of 2P with
  /// P = (min_delay + max_delay) / capacity. A directed channel carries
  /// this link's copies and the reverse link's acks, about one of each per
  /// P, and each stays in flight for the mean one-way delay
  /// (min_delay + max_delay) / 2, so at P the mean load equals the
  /// capacity; a kDataAck is both, so replies spaced by P keep that load.
  /// Every other field keeps its default.
  static LinkConfig for_channel(const net::ChannelConfig& ch);
};

/// Both directed data links between `self` and one `peer`:
///  * the *sender side* of link (self → peer): stop-and-wait ARQ that
///    resends the current frame until more than `threshold` matching
///    acknowledgments arrive — this completes a token round trip, which
///    doubles as the heartbeat of the (N,Θ) failure detector;
///  * the *receiver side* of link (peer → self): delivers each fresh label
///    once and acknowledges every data packet (acks are never spontaneous),
///    with piggyback_acks on in a kDataAck that also carries the sender
///    side's current frame; until its cleaning quarantine lifts, it answers
///    data with kReclean, which sends the sender back to cleaning.
class TokenLink {
 public:
  /// Called when the sender side may compose the next frame payload.
  // ssr-lint: allow(hot-path-alloc): wired once at link construction, never on the frame path.
  using ComposeFn = std::function<wire::Bytes()>;
  /// Called when the receiver side delivers a fresh payload.
  // ssr-lint: allow(hot-path-alloc): wired once at link construction, never on the frame path.
  using DeliverFn = std::function<void(const wire::Bytes&)>;
  /// Called on token progress (fresh data received / round completed).
  // ssr-lint: allow(hot-path-alloc): wired once at link construction, never on the frame path.
  using HeartbeatFn = std::function<void()>;

  TokenLink(net::Transport& transport, Rng rng, LinkConfig cfg, NodeId self,
            NodeId peer, ComposeFn compose, DeliverFn deliver,
            HeartbeatFn heartbeat);
  ~TokenLink() { shutdown(); }

  TokenLink(const TokenLink&) = delete;
  TokenLink& operator=(const TokenLink&) = delete;

  /// Starts the snap-stabilizing cleaning handshake and then the ARQ.
  void start();
  /// Cancels all timers (crash / disconnect).
  void shutdown();

  void handle_frame(const Frame& frame);

  /// Statistics for the tests and ssr_bench's per-layer counts.
  struct Stats {
    std::uint64_t rounds_completed = 0;   // token round trips
    std::uint64_t frames_delivered = 0;   // fresh payloads delivered
    std::uint64_t cleans_completed = 0;
    std::uint64_t stale_discarded = 0;    // data discarded while dirty
  };
  const Stats& stats() const { return stats_; }
  bool cleaning() const { return tx_state_ == TxState::kCleaning; }

 private:
  enum class TxState : std::uint8_t { kIdle, kCleaning, kRunning };

  void arm_timer();
  void on_timer();
  /// Encodes and sends the current frame; with `ack`, as a kDataAck that
  /// also acknowledges label `*ack` of the reverse link.
  void transmit_current(std::optional<std::uint8_t> ack = std::nullopt);
  void begin_cleaning();
  void begin_round();
  /// Sender side: counts one ack; true when it completed the round and
  /// began the next, whose first copy the caller sends.
  bool count_ack(std::uint8_t label);
  /// Receiver side: answers and delivers one data copy. `round_began`: the
  /// same packet's ack began a round whose first copy is not sent yet.
  void receive_data(const Frame& frame, bool round_began);

  net::Transport& transport_;
  Rng rng_;
  LinkConfig cfg_;
  NodeId self_;
  NodeId peer_;
  ComposeFn compose_;
  DeliverFn deliver_;
  HeartbeatFn heartbeat_;

  // Sender side of link (self → peer).
  TxState tx_state_ = TxState::kIdle;
  std::uint8_t tx_label_ = 0;
  std::uint8_t clean_nonce_ = 0;
  std::size_t acks_seen_ = 0;
  wire::Bytes tx_payload_;
  SimTime last_copy_at_ = 0;  // when transmit_current last sent

  // Receiver side of link (peer → self). Reordered duplicates of earlier
  // rounds may arrive after a newer label was delivered; a short history of
  // recently delivered labels (shorter than the label domain, longer than
  // the round-trip capacity) filters them. Oldest first, reserved to its
  // bound at construction, so a delivery never allocates.
  std::vector<std::uint8_t> rx_recent_;
  bool rx_clean_ = false;        // quarantine lifted
  std::uint8_t rx_clean_nonce_ = 0;
  std::size_t rx_clean_count_ = 0;
  bool down_ = false;

  net::TimerHandle timer_;
  Stats stats_;
};

}  // namespace ssr::dlink
