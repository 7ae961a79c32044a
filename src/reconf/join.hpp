#pragma once

#include <functional>
#include <map>

#include "reconf/recsa.hpp"

namespace ssr::reconf {

struct JoinStats {
  std::uint64_t joined = 0;            // successful participate() via passes
  std::uint64_t bootstrap_resets = 0;  // collapse path: participate() → ⊥
  std::uint64_t passes_granted = 0;    // replies sent with pass = true
};

struct JoinConfig {
  /// Ticks of quiet (noReco, zero visible participants, stable FD) a joiner
  /// waits before concluding the configuration completely collapsed and
  /// seeding the brute-force reset (paper §3.1.1 / §3.3; the paper leaves
  /// the invoker of the collapse path unspecified — see README,
  /// "Deviations from the paper").
  unsigned bootstrap_patience_ticks = 200;
};

/// Joining mechanism — Algorithm 3.3.
///
/// Both sides live here: a non-participant runs the joiner's loop (reset
/// app state, collect passes from a majority of configuration members, then
/// participate()); a participant answers join requests with
/// ⟨passQuery(), state⟩ when no reconfiguration is taking place. Passes are
/// published continuously on the token links, so they are retracted
/// automatically when a reconfiguration starts (paper, Claim 3.24).
class Joiner {
 public:
  /// Application admission control (paper Fig. 1: passQuery()).
  using PassQuery = std::function<bool()>;
  /// Application state snapshot handed to joiners.
  using StateProvider = std::function<wire::Bytes()>;
  /// resetVars(): default-initialize application state (line 7).
  using ResetVars = std::function<void()>;
  /// initVars(states): initialize application state from the states sent by
  /// the pass-granting configuration members (line 11).
  using InitVars = std::function<void(const std::vector<wire::Bytes>&)>;

  Joiner(dlink::LinkMux& mux, RecSA& recsa, NodeId self, JoinConfig cfg,
         PassQuery pass_query, StateProvider state_provider,
         ResetVars reset_vars, InitVars init_vars);

  /// One iteration of the joiner/participant loop.
  void tick();

  const JoinStats& stats() const { return stats_; }
  bool waiting_to_join() const { return !recsa_.is_participant(); }

 private:
  struct PassRecord {
    bool pass = false;
    wire::Bytes state;
  };

  void on_message(NodeId from, const wire::Bytes& data);
  void joiner_tick();
  void participant_tick();

  dlink::LinkMux& mux_;
  RecSA& recsa_;
  NodeId self_;
  JoinConfig cfg_;
  PassQuery pass_query_;
  StateProvider state_provider_;
  ResetVars reset_vars_;
  InitVars init_vars_;

  bool was_participant_ = false;
  std::map<NodeId, PassRecord> passes_;   // joiner side: pass[]
  std::map<NodeId, bool> join_requests_;  // participant side: active requests
  unsigned quiet_ticks_ = 0;
  JoinStats stats_;
};

}  // namespace ssr::reconf
