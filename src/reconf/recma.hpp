#pragma once

#include <functional>
#include <map>
#include <optional>

#include "reconf/recsa.hpp"
#include "util/memo.hpp"

namespace ssr::reconf {

struct RecMAStats {
  std::uint64_t majority_loss_triggers = 0;  // line 13 estab() calls
  std::uint64_t eval_conf_triggers = 0;      // line 17 estab() calls
  std::uint64_t flag_flushes = 0;
};

/// Reconfiguration Management — Algorithm 3.2.
///
/// Triggers a delicate reconfiguration through recSA's estab() when
/// (i) a majority of the configuration appears collapsed and the local core
/// unanimously agrees (lines 12–14), or (ii) the application's prediction
/// function advises reconfiguration and a majority of members concurs
/// (lines 16–18). The prediction function is injected (`EvalConf`); the
/// default used by the examples is the paper's sample policy "reconfigure
/// once 1/4 of the members are no longer trusted".
class RecMA {
 public:
  /// Application prediction function evalConf(config) → bool.
  using EvalConf = std::function<bool(const IdSet& config)>;

  RecMA(dlink::LinkMux& mux, RecSA& recsa, NodeId self, EvalConf eval);

  /// One iteration of the do-forever loop (lines 5–19).
  void tick();

  /// Algorithm 4.6 (coordinator-led delicate reconfiguration): replaces the
  /// prediction-majority trigger of line 16 with needDelicateReconf() —
  /// the virtual-synchrony coordinator decides alone once the whole view is
  /// suspended.
  void set_direct_trigger(std::function<bool()> fn) {
    direct_trigger_ = std::move(fn);
  }

  const RecMAStats& stats() const { return stats_; }

  /// Fault injection: plants stale flags as if left by a transient fault.
  void inject_flags(NodeId entry, bool no_maj, bool need_reconf);

 private:
  struct Flags {
    bool no_maj = false;
    bool need_reconf = false;
  };

  IdSet core() const;  // ∩_{j ∈ FD[i].part} FD[j].part
  void flush_flags();  // flushFlags()
  void on_message(NodeId from, const wire::Bytes& data);
  void broadcast();

  dlink::LinkMux& mux_;
  RecSA& recsa_;
  NodeId self_;
  EvalConf eval_;

  std::map<NodeId, Flags> flags_;
  std::optional<ConfigValue> prev_config_;
  std::function<bool()> direct_trigger_;
  util::Memo published_;   // keyed on the published flags
  IdSet published_part_;   // ... and the participants they went to
  RecMAStats stats_;
};

}  // namespace ssr::reconf
