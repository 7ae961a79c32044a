#pragma once

#include "dlink/link_mux.hpp"
#include "label/label_store.hpp"
#include "reconf/recsa.hpp"
#include "util/memo.hpp"

namespace ssr::label {

struct LabelingStats {
  std::uint64_t rebuilds = 0;   // configuration changes absorbed
  std::uint64_t exchanges = 0;  // label messages processed
};

/// Self-stabilizing labeling algorithm for reconfiguration — Algorithm 4.1.
///
/// Runs only on configuration members and only while no reconfiguration is
/// taking place. Members continuously exchange ⟨max[i], max[k]⟩ pairs; the
/// receipt action (Algorithm 4.2, `LabelStore`) maintains the queues and
/// converges every member to one globally maximal label (Theorem 4.4).
/// After a reconfiguration completes, the structures are rebuilt for the
/// new member set and all queues are emptied, which is what makes the
/// post-reconfiguration bound O(N²) instead of O(N(N²+m)).
class Labeling {
 public:
  Labeling(dlink::LinkMux& mux, reconf::RecSA& recsa, NodeId self,
           StoreConfig cfg, Rng rng);

  /// One do-forever iteration: reconfiguration detection + transmission.
  void tick();

  /// The local maximal label pair (legit during steady states).
  const LabelPair& local_max() { return store_.local_max(); }
  LabelStore& store() { return store_; }
  bool member() const { return member_; }
  const LabelingStats& stats() const { return stats_; }

 private:
  /// confChange(): the label structures disagree with getConfig().
  bool conf_change(const reconf::ConfigValue& cur) const;
  void on_message(NodeId from, const wire::Bytes& data);
  wire::Bytes encode_exchange(NodeId peer);

  dlink::LinkMux& mux_;
  reconf::RecSA& recsa_;
  NodeId self_;
  LabelStore store_;
  bool member_ = false;
  util::Memo published_;  // store version of the exchange slots
  LabelingStats stats_;
};

}  // namespace ssr::label
