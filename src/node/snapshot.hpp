#pragma once

#include <cstddef>
#include <optional>

#include "reconf/config_value.hpp"
#include "vs/view.hpp"

namespace ssr::node {

class Node;

/// What the legal-execution predicates below read of one processor. The
/// simulator builds it from a live node (of); an ssr_node daemon writes it
/// as the node half of its STATUS reply and the process runner parses it
/// back (scenario::ctl::format_snapshot / parse_snapshot). A default
/// snapshot stands for a node not sampled yet and satisfies no predicate.
struct NodeSnapshot {
  /// The virtual-synchrony layer (§4.3).
  struct Vs {
    bool multicast = false;
    bool no_coordinator = true;
    NodeId coordinator = kNoNode;
    /// Copied only for a participant that multicasts under a coordinator,
    /// the one case a predicate reads it; the null view otherwise.
    vs::View view;

    friend bool operator==(const Vs&, const Vs&) = default;
  };

  NodeId id = kNoNode;
  bool no_reco = false;
  bool participant = false;
  reconf::ConfigValue config;
  /// The prediction policy advises moving `config`. Evaluated only when
  /// no_reco holds and `config` is proper, the one case a predicate reads
  /// it; false otherwise.
  bool advised = false;
  std::optional<Vs> vs;  ///< empty without the VS layer

  static NodeSnapshot of(Node& n);

  friend bool operator==(const NodeSnapshot&, const NodeSnapshot&) = default;
};

// Each predicate is written once, over any range of the *alive* nodes'
// snapshots, and stops at the first node that fails it.

/// One node's step of common_config: noReco, and a proper configuration
/// that the policy does not advise moving and that equals `common` (the
/// first node sets it).
inline bool agrees(const NodeSnapshot& s, std::optional<IdSet>& common) {
  // Agreement alone is not a fixpoint: if the policy already advises
  // reconfiguration, a config change is imminent and a caller that marks
  // the system stable here races it (scenario_fuzz shrank a closure
  // violation down to exactly this window).
  if (!s.no_reco || !s.config.is_proper() || s.advised) return false;
  if (common) return *common == s.config.ids();
  common = s.config.ids();
  return true;
}

/// The conflict-free state of Theorem 3.15: every node agrees. Returns the
/// common configuration; nullopt when not converged or `alive` is empty.
template <class Snapshots>
std::optional<IdSet> common_config(Snapshots&& alive) {
  std::optional<IdSet> common;
  for (const NodeSnapshot& s : alive) {
    if (!agrees(s, common)) return std::nullopt;
  }
  return common;
}

/// Converged, and every participant multicasts in one common non-null view
/// under one coordinator (§4.3); joiners sync up after installation.
template <class Snapshots>
bool vs_stable(Snapshots&& alive) {
  std::optional<IdSet> common;
  std::optional<NodeSnapshot::Vs> first;  // a copy: `s` may be a temporary
  for (const NodeSnapshot& s : alive) {
    if (!agrees(s, common) || !s.vs) return false;
    if (!s.participant) continue;
    const NodeSnapshot::Vs& v = *s.vs;
    if (!v.multicast || v.no_coordinator || v.view.is_null()) return false;
    if (!first) {
      first = v;
    } else if (v.coordinator != first->coordinator || v.view != first->view) {
      return false;
    }
  }
  return first.has_value();
}

/// Every target is an alive participant: a crashed or unknown one is not.
template <class Snapshots>
bool targets_admitted(Snapshots&& alive, const IdSet& targets) {
  std::size_t admitted = 0;
  for (const NodeSnapshot& s : alive) {
    if (!targets.contains(s.id)) continue;
    if (!s.participant) return false;
    ++admitted;
  }
  return admitted == targets.size();
}

/// Converged on exactly the alive set: the configuration caught up with
/// churn.
template <class Snapshots>
bool config_equals_alive(Snapshots&& alive) {
  std::optional<IdSet> common;
  std::size_t count = 0;
  for (const NodeSnapshot& s : alive) {
    if (!agrees(s, common) || !common->contains(s.id)) return false;
    ++count;
  }
  return common && common->size() == count;
}

}  // namespace ssr::node
