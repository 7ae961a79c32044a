#pragma once

#include <functional>
#include <map>
#include <memory>

#include "counter/increment.hpp"
#include "vs/state_machine.hpp"
#include "vs/view.hpp"

namespace ssr::vs {

enum class Status : std::uint8_t { kMulticast = 0, kPropose = 1, kInstall = 2 };

/// The per-processor state record of Algorithm 4.7 — broadcast in full on
/// every iteration (line 25).
struct VSRecord {
  View view;
  Status status = Status::kMulticast;
  std::uint64_t rnd = 0;
  wire::Bytes replica;  // replica snapshot, post-apply of `msgs` at `rnd`
  std::vector<std::pair<NodeId, wire::Bytes>> msgs;  // round `rnd` deliveries
  wire::Bytes input;    // last fetched multicast input
  View prop_view;       // propV
  bool no_crd = true;
  bool suspend = false;
  NodeId crd = kNoNode;  // FD[i].crd — the coordinator this processor follows

  wire::Bytes encode() const;
  static std::optional<VSRecord> decode(const wire::Bytes& raw);
};

struct VsStats {
  std::uint64_t views_installed = 0;
  std::uint64_t rounds_applied = 0;
  std::uint64_t proposals_started = 0;
  std::uint64_t adoptions = 0;       // follower state adoptions
  std::uint64_t suspensions = 0;     // transitions into suspend = true
  std::uint64_t inc_aborts = 0;      // failed view-id mints
};

/// Self-stabilizing reconfigurable virtually synchronous SMR —
/// Algorithm 4.7, with the coordinator-led delicate reconfiguration of
/// Algorithm 4.6 exposed through needDelicateReconf().
///
/// A coordinator (the processor whose proposed view carries the highest
/// counter and is followed by a configuration majority) drives lockstep
/// multicast rounds: it collects each member's last fetched input, applies
/// the batch, and advances `rnd`; followers adopt the coordinator's state
/// wholesale (the broadcast replica snapshot is always post-apply, so
/// adoption never double-applies). View changes preserve state by
/// consolidating the records of the new view's members (synchState /
/// synchMsgs); a coordinator that wants to reconfigure first suspends
/// multicast until every view member acknowledged the suspension
/// (Theorem 4.13: the replica state survives delicate reconfigurations).
class VsSmr {
 public:
  /// Application: next command to multicast (nullopt = none pending).
  using FetchFn = std::function<std::optional<wire::Bytes>()>;
  /// Application prediction function evalConf() — reconfigure when true.
  using EvalConf = std::function<bool(const IdSet& config)>;
  /// Fired once per applied round (and once per installed view) with the
  /// delivered batch, in delivery order.
  using DeliverFn = std::function<void(
      const View& view, std::uint64_t rnd,
      const std::vector<std::pair<NodeId, wire::Bytes>>& msgs)>;

  VsSmr(dlink::LinkMux& mux, reconf::RecSA& recsa,
        counter::CounterManager& counters, NodeId self,
        std::unique_ptr<StateMachine> sm, FetchFn fetch, EvalConf eval,
        counter::IncrementConfig inc_cfg, Rng rng);

  /// One iteration of the do-forever loop (lines 4–25).
  void tick();

  /// Algorithm 4.6: the recMA delicate-reconfiguration trigger — true when
  /// this processor is an established coordinator, the whole view is
  /// suspended, and the prediction function still advises reconfiguring.
  bool need_delicate_reconf() const;

  // -- Introspection ---------------------------------------------------------
  const View& view() const { return mine_.view; }
  Status status() const { return mine_.status; }
  NodeId coordinator() const { return valid_crd_; }
  bool no_coordinator() const { return mine_.no_crd; }
  bool suspended() const { return mine_.suspend; }
  StateMachine& state_machine() { return *sm_; }
  const VsStats& stats() const { return stats_; }

  /// Listeners accumulate — monitors and trace recorders observe
  /// independently.
  void add_deliver_handler(DeliverFn fn) { deliver_.push_back(std::move(fn)); }
  /// Fired once per installed view (after state synchronization).
  void add_view_install_handler(std::function<void(const View&)> fn) {
    on_view_install_.push_back(std::move(fn));
  }

 private:
  struct SeenCrd {
    NodeId id = kNoNode;
    bool valid = false;
  };

  void on_message(NodeId from, const wire::Bytes& data);
  IdSet seem_crd(const IdSet& part, const IdSet& conf) const;
  bool maybe_propose(const IdSet& part, const IdSet& conf);
  void coordinator_step(const IdSet& part);
  void follower_step();
  void synch_state();
  void emit_round(const View& v, std::uint64_t rnd,
                  const std::vector<std::pair<NodeId, wire::Bytes>>& msgs);
  void broadcast(const IdSet& part, const IdSet& seem);
  const VSRecord* record_of(NodeId id) const;

  dlink::LinkMux& mux_;
  reconf::RecSA& recsa_;
  counter::CounterManager& counters_;
  NodeId self_;
  std::unique_ptr<StateMachine> sm_;
  FetchFn fetch_;
  EvalConf eval_;
  counter::IncrementClient inc_;

  VSRecord mine_;
  std::map<NodeId, VSRecord> records_;  // peers' broadcasts
  NodeId valid_crd_ = kNoNode;          // valCrd (kNoNode: none/ambiguous)
  bool reconf_ready_ = false;
  bool inc_pending_ = false;
  // Deduplication of round applications: (view id, rnd) last emitted.
  Counter applied_view_id_;
  std::uint64_t applied_rnd_ = 0;
  bool applied_any_ = false;

  std::vector<DeliverFn> deliver_;
  std::vector<std::function<void(const View&)>> on_view_install_;
  VsStats stats_;
};

}  // namespace ssr::vs
