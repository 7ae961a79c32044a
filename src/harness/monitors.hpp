#pragma once

#include <string>
#include <vector>

#include "harness/world.hpp"

namespace ssr::harness {

/// Records every configuration change at every node — used to verify
/// closure (Theorem 3.16: no changes during legal executions) and that
/// joins never move the configuration (§3.3).
class ConfigHistoryMonitor {
 public:
  struct Event {
    SimTime when = 0;
    NodeId node = kNoNode;
    reconf::ConfigValue config;
  };

  /// Attaches to every node currently in the world.
  void attach(World& world);
  void attach_node(World& world, NodeId id);

  /// Direct feed for world-less observers (the process backend records
  /// changes it samples over the control socket).
  void record(SimTime when, NodeId node, reconf::ConfigValue config) {
    events_.push_back(Event{when, node, std::move(config)});
  }

  const std::vector<Event>& events() const { return events_; }
  std::size_t events_since(SimTime t) const;
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

/// Validates Theorem 4.6: counters returned by completed increments are
/// strictly increasing with respect to real-time order — if increment A
/// completed before increment B began, then counter(A) ≺ct counter(B).
class CounterOrderMonitor {
 public:
  struct Op {
    SimTime started = 0;
    SimTime finished = 0;
    counter::Counter value;
  };

  void record(SimTime started, SimTime finished, const counter::Counter& c) {
    ops_.push_back(Op{started, finished, c});
  }

  std::size_t completed() const { return ops_.size(); }
  /// Number of real-time-ordered pairs that violate ≺ct (must be 0).
  std::size_t violations() const;

 private:
  std::vector<Op> ops_;
};

/// Validates the virtual synchrony property (Theorem 4.13): any two
/// processors that deliver a batch for the same (view id, round) deliver
/// exactly the same messages, and replica digests never diverge at equal
/// (view, round).
class VirtualSynchronyMonitor {
 public:
  void attach(World& world);
  void attach_node(World& world, NodeId id);

  std::size_t deliveries() const { return deliveries_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  struct Key {
    counter::Counter view_id;
    std::uint64_t rnd;
    std::uint64_t digest;
  };
  static std::uint64_t digest_msgs(
      const std::vector<std::pair<NodeId, wire::Bytes>>& msgs);

  std::vector<Key> keys_;
  std::size_t deliveries_ = 0;
  std::size_t mismatches_ = 0;
};

}  // namespace ssr::harness
