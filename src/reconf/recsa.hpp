#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "dlink/link_mux.hpp"
#include "reconf/config_value.hpp"
#include "reconf/notification.hpp"
#include "util/memo.hpp"
#include "util/rng.hpp"

namespace ssr::reconf {

/// Echoed view of a peer's (participant set, notification, all-flag) triple
/// — the `echo[]` field of Algorithm 3.1.
struct EchoView {
  IdSet part;
  Notification prp;
  bool all = false;

  friend bool operator==(const EchoView&, const EchoView&) = default;

  void encode(wire::Writer& w) const;
  static EchoView decode(wire::Reader& r);
};

/// The full per-iteration broadcast of Algorithm 3.1 (line 29):
/// ⟨FD, config, prp, all, echo-of-receiver⟩. The FD field also encodes the
/// sender's participant view.
struct RecSAMessage {
  IdSet fd;
  IdSet part;
  ConfigValue config;
  Notification prp;
  bool all = false;
  EchoView echo;

  wire::Bytes encode() const;
  static std::optional<RecSAMessage> decode(const wire::Bytes& raw);
};

/// Counters read by the property tests and by ssr_bench's per-layer counts.
struct RecSAStats {
  std::uint64_t resets_started = 0;       // configSet(⊥) calls
  std::uint64_t brute_installs = 0;       // configSet(FD) completions
  std::uint64_t delicate_installs = 0;    // phase-2 config replacements
  std::uint64_t proposals_accepted = 0;   // effective estab() calls
  std::uint64_t phase_transitions = 0;    // barrier advances
  std::uint64_t joins_accepted = 0;       // effective participate() calls
  std::uint64_t stale_detected[5] = {0, 0, 0, 0, 0};  // [0] unused, 1..4
};

/// Reconfiguration Stability Assurance — Algorithm 3.1.
///
/// Guarantees (Theorems 3.15/3.16): starting from an arbitrary state, all
/// active processors eventually share one configuration (convergence), and
/// from a stale-free state only explicit estab()/participate() calls change
/// it (closure). The class is a pure protocol engine: the owner wires in the
/// failure detector reading and calls tick() from its do-forever loop; the
/// broadcast rides the token-link state slots.
///
/// The OCR-damaged pseudocode is reconstructed from the prose and the
/// correctness proofs; README "Deviations from the paper" lists where it
/// departs from the algorithm as printed.
class RecSA {
 public:
  using FdSupplier = std::function<IdSet()>;

  RecSA(dlink::LinkMux& mux, NodeId self, FdSupplier fd_supplier);

  // -- Interface functions of Algorithm 3.1 (Fig. 1 arrows) -----------------

  /// getConfig(): the agreed configuration; during quiet periods the chosen
  /// common value, otherwise the local view (possibly ⊥ or ]).
  ConfigValue get_config() const;
  /// Allocation-free variant for the per-tick hot paths: the reference
  /// aliases a peer record (or a static ⊥) and is invalidated by the next
  /// message or tick — copy it if it must survive one.
  const ConfigValue& get_config_ref() const;
  /// noReco(): true iff no reconfiguration (brute-force or delicate) is in
  /// progress and the participant views are stable. (Paper polarity:
  /// "returns True if a reconfiguration is not taking place".)
  bool no_reco() const;
  /// estab(set): requests a delicate replacement of the configuration by
  /// `set`. Effective only when noReco() and the set is proper and differs
  /// from the current configuration. Returns true when accepted.
  bool estab(const IdSet& proposed);
  /// participate(): requests promotion from joiner to participant.
  /// Effective only when noReco(). Returns true when now a participant.
  bool participate();

  // -- Wiring ---------------------------------------------------------------

  /// One iteration of the do-forever loop (lines 24–29).
  void tick();

  bool is_participant() const { return !config_of(self_).is_non_participant(); }
  NodeId self() const { return self_; }
  /// FD[i].part — the participant subset of the trusted set.
  IdSet participants() const;
  /// Last received FD[j].part view of a peer (used by recMA's core()).
  std::optional<IdSet> peer_part_view(NodeId id) const;
  /// Whether `id` is a participant in the local view (config[j] ≠ ]).
  bool peer_is_participant(NodeId id) const {
    return !config_of(id).is_non_participant();
  }
  /// Last failure-detector reading used by tick().
  const IdSet& trusted() const { return fd_self_; }
  const Notification& notification() const { return prp_of(self_); }
  const RecSAStats& stats() const { return stats_; }

  /// Fired whenever config[i] changes value (brute-force install, delicate
  /// install, reset, participation). Listeners accumulate — monitors and
  /// trace recorders observe independently.
  void add_config_change_handler(std::function<void(const ConfigValue&)> fn) {
    on_config_change_.push_back(std::move(fn));
  }

  // -- Transient-fault injection (FaultInjector and tests only) --------------
  /// Overwrites internal state with arbitrary values drawn from `rng`, with
  /// node ids drawn from `universe` — models an arbitrary starting state.
  void inject_corruption(Rng& rng, const IdSet& universe);
  /// Directly plants a value (targeted corruption for unit tests).
  void inject_config(NodeId entry, ConfigValue v);
  void inject_notification(NodeId entry, Notification n);

 private:
  struct PeerRecord {
    IdSet fd;
    IdSet part;
    bool fd_known = false;  // no broadcast from this peer yet
    ConfigValue config;     // defaults to ] (non-participant)
    Notification prp;
    bool all = false;
    EchoView echo;
  };

  // Accessors that tolerate absent records (default-constructed views).
  const ConfigValue& config_of(NodeId id) const;
  const Notification& prp_of(NodeId id) const;
  PeerRecord& record(NodeId id);

  void on_message(NodeId from, const wire::Bytes& data);
  void set_own_config(ConfigValue v);

  // configSet(val) — wraps access to the local config copies (line 21).
  void config_set(const ConfigValue& val);

  // Predicate helpers (names follow the paper's macros).
  IdSet part_set() const;
  Notification max_ntf() const;                 // maxNtf()
  ConfigValue chs_config() const;               // chsConfig()
  const ConfigValue& chs_config_ref() const;    // allocation-free chsConfig()
  bool echo_no_all(NodeId k, const IdSet& part) const;
  bool same_strict(NodeId k, const IdSet& part) const;
  bool one_ahead(NodeId k, const IdSet& part) const;
  bool same_relaxed(NodeId k, const IdSet& part) const;
  bool echo_complete(const IdSet& part) const;  // echo()
  bool all_seen_complete(const IdSet& part) const;

  // Stale-information classification (Definition 3.1); returns the first
  // matching type (1..4) or 0.
  int stale_type(const IdSet& part) const;

  /// Line 29: publishes unless the state is unchanged since the last
  /// publish (the slots then already hold these bytes).
  void broadcast();
  void publish();

  dlink::LinkMux& mux_;
  NodeId self_;
  FdSupplier fd_supplier_;

  IdSet fd_self_;  // FD[i] — refreshed at each tick
  std::map<NodeId, PeerRecord> records_;  // includes own record (entry i)
  IdSet all_seen_;                        // allSeen
  /// Scratch for no_reco()'s participant set (rebuilt per call; capacity
  /// sticks so the per-tick legality check never allocates).
  mutable IdSet part_scratch_;
  /// Scratch for broadcast()'s participant set (kept separate: no_reco()
  /// may run while a broadcast-encoded set is still referenced).
  IdSet bcast_scratch_;

  // -- Derived-view memoization ----------------------------------------------
  // no_reco(), chs_config_ref() and the broadcast are pure functions of
  // (records_, fd_self_), but every subsystem re-evaluates them on every
  // do-forever tick. `state_version_` moves on every change of that state:
  // record() and config_set() bump it before they write, on_message() and
  // tick() when a compared field differs (a new FD reading, an erased or
  // reset record), inject_corruption() always. The caches recompute and
  // broadcast() re-encodes on a version mismatch, so results are always
  // identical to the uncached evaluation — over-bumping merely costs a
  // recompute. tick() also bumps it on every util::kRefresh-th call, so a
  // corrupted cache heals in bounded time while the node is quiet.
  std::uint64_t state_version_ = 0;
  std::uint32_t ticks_since_bump_ = 0;
  util::Memo published_;  // state_version_ of the recSA slots
  mutable std::uint64_t no_reco_version_ = ~0ULL;
  mutable bool no_reco_value_ = false;
  mutable std::uint64_t chs_version_ = ~0ULL;
  mutable const ConfigValue* chs_value_ = nullptr;

  bool compute_no_reco() const;

  RecSAStats stats_;
  std::vector<std::function<void(const ConfigValue&)>> on_config_change_;
};

}  // namespace ssr::reconf
