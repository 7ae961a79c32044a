#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "net/channel.hpp"
#include "sim/scheduler.hpp"
#include "util/assert.hpp"
#include "util/id_set.hpp"
#include "util/rng.hpp"

namespace ssr::net {

/// Fully connected network fabric over the simulated scheduler.
///
/// A directed Channel is created lazily per ordered pair. Crashed or
/// never-registered destinations silently drop packets (a crashed processor
/// takes no further steps — paper, Section 2).
///
/// Hot-path notes: each channel's delivery callback caches the destination
/// handler pointer, validated against an attach epoch, so steady-state
/// delivery costs no map lookup; loopback traffic rides the scheduler's
/// typed packet path (no closure, pooled payload buffer).
class Network {
 public:
  using Handler = std::function<void(const Packet&)>;

  Network(sim::Scheduler& sched, Rng rng, ChannelConfig cfg)
      : sched_(sched), rng_(rng), cfg_(cfg) {}

  /// Registers a node's packet handler. Attaching over a live handler is a
  /// programming error — it would silently splice a second incarnation into
  /// the fabric; crash (detach) the old node first. Identifiers are never
  /// reused (paper, Section 2).
  void attach(NodeId id, Handler handler) {
    SSR_ASSERT(handlers_.count(id) == 0,
               "re-attach of a live node — detach the old incarnation first");
    handlers_[id] = std::move(handler);
    ++attach_epoch_;
  }
  /// Detaches a node: models a crash; its inbound packets are dropped.
  void detach(NodeId id) {
    handlers_.erase(id);
    ++attach_epoch_;
  }
  bool attached(NodeId id) const { return handlers_.count(id) != 0; }

  void send(NodeId src, NodeId dst, wire::Bytes payload);

  /// Installs the worst-case delivery policy. Must be called before the
  /// first channel is created (i.e. before any node sends); channels pick
  /// the pointer up at construction. Null (the default) keeps the uniform
  /// delay draws that every pinned replay hash was recorded under.
  void set_adversary(Adversary* adversary) { adversary_ = adversary; }
  Adversary* adversary() { return adversary_; }

  // -- Partitions -------------------------------------------------------------
  // A partition blocks packets at the send side in both directions; packets
  // already in flight still deliver (the fabric does not destroy traffic that
  // left before the cut). Blocks accumulate until heal() is called.

  /// Blocks both directed channels between `a` and `b`.
  void block_pair(NodeId a, NodeId b);
  /// Blocks every pair with one endpoint in `a` and the other in `b`.
  void split(const IdSet& a, const IdSet& b);
  /// Cuts `id` off from everyone — the fabric analog of SIGSTOP (a stopped
  /// process neither sends nor acknowledges; from the outside it is simply
  /// unreachable). Isolation is tracked separately from partitions: heal()
  /// does not resume a paused node, and rejoin() does not touch partition
  /// blocks — exactly like signals vs. peer filters on the process backend.
  void isolate(NodeId id) { isolated_.insert(id); }
  /// The isolate() inverse; any split()-created partition stays in place.
  void rejoin(NodeId id) { isolated_.erase(id); }
  bool isolated(NodeId id) const { return isolated_.count(id) != 0; }
  /// Removes every partition block (isolated nodes stay isolated).
  void heal();
  bool blocked(NodeId src, NodeId dst) const {
    return isolated_.count(src) != 0 || isolated_.count(dst) != 0 ||
           blocked_.count({src, dst}) != 0;
  }
  std::uint64_t packets_blocked() const { return packets_blocked_; }

  /// Direct access to a channel for fault injection and inspection.
  Channel& channel(NodeId src, NodeId dst);

  /// Applies `fn` to every channel that currently exists.
  void for_each_channel(const std::function<void(NodeId, NodeId, Channel&)>& fn);

  const ChannelConfig& config() const { return cfg_; }
  sim::Scheduler& scheduler() { return sched_; }

 private:
  /// Typed scheduler sink for loopback packets (src == dst): delivery next
  /// step without loss, no closure, pooled buffer.
  struct LoopbackSink final : sim::PacketSink {
    LoopbackSink(Network* n, NodeId d) : net(n), dst(d) {}
    void deliver_packet(wire::Bytes&& payload) override;
    Network* net;
    NodeId dst;
  };

  sim::Scheduler& sched_;
  Rng rng_;
  ChannelConfig cfg_;
  /// Owned by the World (lives as long as the fabric); see set_adversary.
  Adversary* adversary_ = nullptr;
  std::map<NodeId, Handler> handlers_;
  /// Bumped on every attach/detach; channels revalidate their cached
  /// handler pointer against it (map nodes are address-stable otherwise).
  std::uint64_t attach_epoch_ = 1;
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<Channel>> channels_;
  /// O(1) send-path index over channels_. The ordered map stays the source
  /// of truth so for_each_channel keeps its deterministic iteration order
  /// (fault injection draws RNG per channel in that order).
  std::unordered_map<std::uint64_t, Channel*> channel_index_;
  std::map<NodeId, std::unique_ptr<LoopbackSink>> loopbacks_;
  std::set<std::pair<NodeId, NodeId>> blocked_;
  std::set<NodeId> isolated_;
  std::uint64_t packets_blocked_ = 0;
};

}  // namespace ssr::net
