#include "dlink/link_mux.hpp"

#include <utility>

namespace ssr::dlink {

LinkMux::LinkMux(net::Transport& transport, NodeId self, MuxConfig cfg, Rng rng)
    : transport_(transport), self_(self), cfg_(cfg), rng_(rng) {}

LinkMux::PeerState& LinkMux::ensure_peer(NodeId peer) {
  auto it = peers_.find(peer);
  if (it != peers_.end()) return it->second;
  auto& ps = peers_[peer];
  // ssr-lint: allow(hot-path-alloc): one-time link construction on first contact (cold path).
  ps.link = std::make_unique<TokenLink>(
      transport_, rng_.fork(), cfg_.link, self_, peer,
      /*compose=*/[this, peer]() { return compose(peer); },
      /*deliver=*/
      [this, peer](const wire::Bytes& bundle) { deliver_bundle(peer, bundle); },
      /*heartbeat=*/
      [this, peer]() {
        if (heartbeat_) heartbeat_(peer);
      });
  return ps;
}

void LinkMux::connect(NodeId peer) {
  if (down_ || peer == self_) return;
  ensure_peer(peer).link->start();
}

void LinkMux::disconnect(NodeId peer) { peers_.erase(peer); }

void LinkMux::shutdown() {
  down_ = true;
  peers_.clear();
}

void LinkMux::publish_state(Port port, NodeId peer, wire::Bytes data) {
  if (down_ || peer == self_) return;
  auto& ps = ensure_peer(peer);
  wire::Bytes& slot = ps.state_slots[port];
  wire::BufferPool::local().release(std::move(slot));  // recycle the stale state
  slot = std::move(data);
  ps.link->start();
}

void LinkMux::publish_state_all(Port port, const wire::Bytes& data) {
  for (auto& [peer, ps] : peers_) {
    (void)ps;
    // Pooled per-peer copy: the broadcast fan-out is the hottest publish
    // path and must not allocate once the pool is warm.
    wire::Bytes copy = wire::BufferPool::local().acquire();
    copy.assign(data.begin(), data.end());  // ssr-lint: allow(hot-path-alloc): pooled capacity
    publish_state(port, peer, std::move(copy));
  }
}

void LinkMux::clear_state(Port port, NodeId peer) {
  auto it = peers_.find(peer);
  if (it != peers_.end()) it->second.state_slots.erase(port);
}

void LinkMux::clear_state_all(Port port) {
  for (auto& [peer, ps] : peers_) {
    (void)peer;
    ps.state_slots.erase(port);
  }
}

bool LinkMux::send_datagram(Port port, NodeId peer, wire::Bytes data) {
  if (down_ || peer == self_) return false;
  auto& ps = ensure_peer(peer);
  ps.link->start();
  auto& q = ps.datagrams[port];
  if (q.size() >= cfg_.datagram_queue_capacity) return false;
  // ssr-lint: allow(hot-path-alloc): datagram queue, bounded by datagram_queue_capacity.
  q.push_back(std::move(data));
  return true;
}

void LinkMux::subscribe(Port port, DeliverFn fn) {
  subscribers_[port] = std::move(fn);
}

wire::Bytes LinkMux::compose(NodeId peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return {};
  auto& ps = it->second;
  // Scratch item list reused across rounds; every buffer that passes
  // through it is released back to the pool after the encode, so a compose
  // round is allocation-free in the steady state.
  compose_scratch_.clear();
  for (const auto& [port, data] : ps.state_slots) {
    BundleItem item;
    item.port = port;
    item.is_state = true;
    item.data = wire::BufferPool::local().acquire();
    item.data.assign(data.begin(), data.end());  // ssr-lint: allow(hot-path-alloc): pooled capacity
    // ssr-lint: allow(hot-path-alloc): scratch list keeps its capacity across rounds.
    compose_scratch_.push_back(std::move(item));
  }
  std::size_t budget = cfg_.max_datagrams_per_frame;
  for (auto& [port, q] : ps.datagrams) {
    while (budget > 0 && !q.empty()) {
      // ssr-lint: allow(hot-path-alloc): scratch list keeps its capacity across rounds.
      compose_scratch_.push_back(
          BundleItem{port, false, std::move(q.front())});
      q.pop_front();
      --budget;
    }
  }
  wire::Bytes out = encode_bundle(compose_scratch_);
  for (auto& item : compose_scratch_) {
    wire::BufferPool::local().release(std::move(item.data));
  }
  compose_scratch_.clear();
  return out;
}

void LinkMux::deliver_bundle(NodeId peer, const wire::Bytes& bundle) {
  if (bundle.empty()) return;
  const bool ok = decode_bundle(bundle, decode_scratch_);
  if (ok) {
    for (auto& item : decode_scratch_) {
      auto sub = subscribers_.find(item.port);
      if (sub != subscribers_.end()) sub->second(peer, item.data);
    }
  }  // else: corrupted in flight — drop (partial decode is recycled too)
  for (auto& item : decode_scratch_) {
    // The subscribers had their look; the slice buffers return to the pool.
    wire::BufferPool::local().release(std::move(item.data));
  }
  decode_scratch_.clear();
}

void LinkMux::handle_packet(const net::Packet& pkt) {
  if (down_) return;
  // Parsed in place: the link copies the payload only if it delivers it.
  const auto frame = FrameView::parse(pkt.payload);
  if (!frame) return;  // garbage or corrupted — drop
  // A link is named by its sender; only frames naming `self` or the actual
  // network source are meaningful here (paper, Section 2: mismatched labels
  // are ignored).
  if (frame->link_sender != self_ && frame->link_sender != pkt.src) return;
  // First contact from an unknown processor triggers the cleaning handshake
  // before any message is delivered upward (paper, Section 2).
  auto& ps = ensure_peer(pkt.src);
  ps.link->start();
  ps.link->handle_frame(*frame);
}

IdSet LinkMux::peers() const {
  IdSet out;
  for (const auto& [peer, ps] : peers_) {
    (void)ps;
    out.insert(peer);  // ssr-lint: allow(hot-path-alloc): cold accessor (tests/monitors only)
  }
  return out;
}

const TokenLink* LinkMux::link(NodeId peer) const {
  auto it = peers_.find(peer);
  return it == peers_.end() ? nullptr : it->second.link.get();
}

const wire::Bytes* LinkMux::state_slot(Port port, NodeId peer) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return nullptr;
  auto slot = it->second.state_slots.find(port);
  return slot == it->second.state_slots.end() ? nullptr : &slot->second;
}

}  // namespace ssr::dlink
