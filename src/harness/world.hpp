#pragma once

#include <map>
#include <memory>
#include <optional>
#include <ranges>

#include "net/adversary.hpp"
#include "net/sim_transport.hpp"
#include "node/node.hpp"
#include "node/snapshot.hpp"

namespace ssr::harness {

struct WorldConfig {
  std::uint64_t seed = 1;
  net::ChannelConfig channel;
  /// Worst-case delivery policy (disabled by default: every pinned replay
  /// hash was recorded under uniform delays).
  net::AdversaryConfig adversary;
  node::NodeConfig node;

  WorldConfig() {
    // The data-link timing follows the channel: thresholds of "more than
    // the total round-trip capacity" (paper, Section 2), acks that ride a
    // copy of the reverse link's frame at most once per
    // (min_delay + max_delay) / capacity, which keeps each channel's mean
    // load at its capacity, and a retransmit timer at twice that gap for
    // replies that never come.
    channel.capacity = 3;
    node.mux.link = dlink::LinkConfig::for_channel(channel);
  }
};

/// Simulation world: scheduler + network + a SimTransport over them + a set
/// of full protocol nodes. This is the entry point used by the examples,
/// the tests, the scenario engine and ssr_bench. Nodes see only the
/// net::Transport seam; the underlying fabric stays available for fault
/// injection and channel inspection.
class World {
 public:
  explicit World(WorldConfig cfg);

  /// Creates and boots a node, seeding its links with all currently alive
  /// nodes. Returns the node (owned by the world).
  node::Node& add_node(NodeId id);
  /// Creates a node without booting it (tests that need pre-boot wiring).
  node::Node& add_stopped_node(NodeId id);
  void boot(NodeId id);

  node::Node& node(NodeId id);
  bool has_node(NodeId id) const { return nodes_.count(id) != 0; }
  void crash(NodeId id);

  IdSet alive() const;
  IdSet all_ids() const;

  sim::Scheduler& scheduler() { return sched_; }
  net::Network& network() { return net_; }
  /// Null unless WorldConfig::adversary.enabled.
  net::Adversary* adversary() { return adversary_.get(); }
  net::Transport& transport() { return transport_; }
  const WorldConfig& config() const { return cfg_; }
  Rng& rng() { return rng_; }

  void run_for(SimTime d) { sched_.run_for(d); }
  void run_until(SimTime t) { sched_.run_until(t); }

  // -- Convergence predicates (legal-execution detectors) --------------------
  // Wrappers over the node:: predicates (node/snapshot.hpp), which the
  // process backend evaluates over sampled STATUS replies too.

  /// The alive nodes' snapshots, built lazily: a predicate stops at the
  /// first failing node, and later nodes are never snapshotted.
  auto snapshots() const {
    const auto is_alive = [](const auto& entry) {
      return entry.second->started() && !entry.second->crashed();
    };
    const auto snapshot = [](const auto& entry) {
      return node::NodeSnapshot::of(*entry.second);
    };
    return nodes_ | std::views::filter(is_alive) |
           std::views::transform(snapshot);
  }

  /// Every alive node agrees on one proper configuration (Theorem 3.15).
  bool converged() const { return common_config().has_value(); }
  /// The common configuration when converged.
  std::optional<IdSet> common_config() const {
    return node::common_config(snapshots());
  }
  /// Runs until converged() holds (checked every `check_every`); returns
  /// the virtual time spent, or nullopt on timeout.
  std::optional<SimTime> run_until_converged(SimTime timeout,
                                             SimTime check_every = 20 * kMsec);
  /// Every alive VS layer agrees on one installed view and coordinator.
  bool vs_stable() const { return node::vs_stable(snapshots()); }
  std::optional<SimTime> run_until_vs_stable(SimTime timeout,
                                             SimTime check_every = 20 * kMsec);

 private:
  /// Runs until `pred` holds (checked every `check_every`); the virtual
  /// time spent, or nullopt on timeout.
  template <class Pred>
  std::optional<SimTime> run_until(Pred pred, SimTime timeout,
                                   SimTime check_every);

  WorldConfig cfg_;
  Rng rng_;
  sim::Scheduler sched_;
  net::Network net_;
  /// Created (and installed on net_) before any channel exists, so every
  /// lazily created channel sees the same policy pointer.
  std::unique_ptr<net::Adversary> adversary_;
  net::SimTransport transport_;
  std::map<NodeId, std::unique_ptr<node::Node>> nodes_;
};

}  // namespace ssr::harness
