#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "dlink/token_link.hpp"
#include "util/id_set.hpp"

namespace ssr::dlink {

struct MuxConfig {
  LinkConfig link;
  std::size_t datagram_queue_capacity = 16;
  std::size_t max_datagrams_per_frame = 4;
};

/// Per-node multiplexer over the token links.
///
/// Two transfer modes, both riding the continuous token exchange:
///  * **state slots** — one coalescing slot per (port, peer); every token
///    round carries the latest published state. This matches the paper's
///    algorithms, which re-broadcast their full state in every do-forever
///    iteration: only the newest state matters, and retransmission is
///    implicit ("a packet sent infinitely often is received infinitely
///    often").
///  * **datagrams** — bounded FIFO per (port, peer) for request/response
///    style traffic (join, counter reads/writes, register ops). Overflow is
///    reported to the caller, which retries — every user is a
///    self-stabilizing retry loop anyway.
class LinkMux {
 public:
  /// Delivery of one bundle item to a subscriber.
  using DeliverFn =
      // ssr-lint: allow(hot-path-alloc): seam, wired once per port at startup
      std::function<void(NodeId from, const wire::Bytes& data)>;
  // ssr-lint: allow(hot-path-alloc): seam, wired once per port at startup.
  using HeartbeatFn = std::function<void(NodeId peer)>;

  LinkMux(net::Transport& transport, NodeId self, MuxConfig cfg, Rng rng);
  ~LinkMux() { shutdown(); }

  LinkMux(const LinkMux&) = delete;
  LinkMux& operator=(const LinkMux&) = delete;

  NodeId self() const { return self_; }

  /// Establishes the anti-parallel link pair with `peer` (idempotent);
  /// starts with the snap-stabilizing cleaning handshake.
  void connect(NodeId peer);
  void disconnect(NodeId peer);
  /// Cancels every timer; used on crash.
  void shutdown();

  /// Publishes the latest state for (port, peer); carried on every
  /// subsequent token round until replaced or cleared.
  void publish_state(Port port, NodeId peer, wire::Bytes data);
  /// Publishes the same state to every connected peer.
  void publish_state_all(Port port, const wire::Bytes& data);
  void clear_state(Port port, NodeId peer);
  void clear_state_all(Port port);

  /// Enqueues a datagram; returns false if the queue is full (caller
  /// retries on its next do-forever iteration).
  bool send_datagram(Port port, NodeId peer, wire::Bytes data);

  void subscribe(Port port, DeliverFn fn);
  void set_heartbeat_handler(HeartbeatFn fn) { heartbeat_ = std::move(fn); }

  /// Tick-boundary flush: pushes every frame the links staged during one
  /// protocol tick out to the fabric in a single batch (no-op on
  /// non-batching transports). The node stack calls this once per tick,
  /// after all layers have published — never per link, which would degrade
  /// a batching transport back to one syscall per peer.
  void flush_transport() { transport_.flush(); }

  /// Entry point wired to the Transport.
  void handle_packet(const net::Packet& pkt);

  IdSet peers() const;
  /// Applies `fn` to every connected peer, oldest id first — the per-tick
  /// alternative to peers() that materializes no set. `fn` may clear state
  /// slots but must not connect/disconnect peers. A template (not
  /// std::function) so no capture size can reintroduce an allocation.
  template <typename Fn>
  void for_each_peer(Fn&& fn) const {
    for (const auto& [peer, ps] : peers_) {
      (void)ps;
      fn(peer);
    }
  }
  const TokenLink* link(NodeId peer) const;
  /// The state published for (port, peer), or nullptr (read-only, tests).
  const wire::Bytes* state_slot(Port port, NodeId peer) const;

 private:
  struct PeerState {
    std::unique_ptr<TokenLink> link;
    std::map<Port, wire::Bytes> state_slots;
    std::map<Port, std::deque<wire::Bytes>> datagrams;
  };

  wire::Bytes compose(NodeId peer);
  void deliver_bundle(NodeId peer, const wire::Bytes& bundle);
  PeerState& ensure_peer(NodeId peer);

  net::Transport& transport_;
  NodeId self_;
  MuxConfig cfg_;
  Rng rng_;
  std::map<NodeId, PeerState> peers_;
  std::map<Port, DeliverFn> subscribers_;
  HeartbeatFn heartbeat_;
  bool down_ = false;
  /// Reused by compose() / deliver_bundle(); the buffers they carry are
  /// pooled per round/frame.
  std::vector<BundleItem> compose_scratch_;
  std::vector<BundleItem> decode_scratch_;
};

}  // namespace ssr::dlink
