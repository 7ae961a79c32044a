#include "reconf/recsa.hpp"

#include <algorithm>
#include <vector>

namespace ssr::reconf {

namespace {
const ConfigValue kNonParticipantValue = ConfigValue::non_participant();
const Notification kDefaultNtf = Notification::none();
}  // namespace

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

void EchoView::encode(wire::Writer& w) const {
  w.id_set(part);
  prp.encode(w);
  w.boolean(all);
}

EchoView EchoView::decode(wire::Reader& r) {
  EchoView e;
  e.part = r.id_set();
  e.prp = Notification::decode(r);
  e.all = r.boolean();
  return e;
}

wire::Bytes RecSAMessage::encode() const {
  wire::Writer w;
  w.id_set(fd);
  w.id_set(part);
  config.encode(w);
  prp.encode(w);
  w.boolean(all);
  echo.encode(w);
  return w.take();
}

std::optional<RecSAMessage> RecSAMessage::decode(const wire::Bytes& raw) {
  wire::Reader r(raw);
  RecSAMessage m;
  m.fd = r.id_set();
  m.part = r.id_set();
  m.config = ConfigValue::decode(r);
  m.prp = Notification::decode(r);
  m.all = r.boolean();
  m.echo = EchoView::decode(r);
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

// ---------------------------------------------------------------------------
// Construction / wiring
// ---------------------------------------------------------------------------

RecSA::RecSA(dlink::LinkMux& mux, NodeId self, FdSupplier fd_supplier)
    : mux_(mux), self_(self), fd_supplier_(std::move(fd_supplier)) {
  // Boot interrupt (line 31): every entry starts as (], dfltNtf, false);
  // absent records read exactly that way, so only the own record is created.
  ++state_version_;  // boot writes records_/fd_self_ directly
  records_[self_] = PeerRecord{};
  fd_self_.insert(self_);
  mux_.subscribe(dlink::kPortRecSA,
                 [this](NodeId from, const wire::Bytes& data) {
                   on_message(from, data);
                 });
}

const ConfigValue& RecSA::config_of(NodeId id) const {
  auto it = records_.find(id);
  return it == records_.end() ? kNonParticipantValue : it->second.config;
}

const Notification& RecSA::prp_of(NodeId id) const {
  auto it = records_.find(id);
  return it == records_.end() ? kDefaultNtf : it->second.prp;
}

RecSA::PeerRecord& RecSA::record(NodeId id) {
  // Non-const access means a write is coming: invalidate the derived-view
  // caches up front (the ref may be written through after we return).
  ++state_version_;
  return records_[id];
}

void RecSA::on_message(NodeId from, const wire::Bytes& data) {
  if (from == self_) return;
  auto msg = RecSAMessage::decode(data);
  if (!msg) return;  // corrupted in flight
  // Deliberately not via record(): fields are compared before assignment,
  // and the derived-view caches are only invalidated when something
  // actually changed — in the steady state every peer re-broadcasts the
  // same view, so no_reco()/chs_config() stay cached across deliveries.
  // (A default-constructed record reads identically to an absent one for
  // every derived view, so creating the map entry itself is not a change.)
  PeerRecord& r = records_[from];
  bool changed = false;
  if (!(r.fd == msg->fd)) {
    r.fd = std::move(msg->fd);
    changed = true;
  }
  if (!(r.part == msg->part)) {
    r.part = std::move(msg->part);
    changed = true;
  }
  if (!r.fd_known) {
    r.fd_known = true;
    changed = true;
  }
  if (!(r.config == msg->config)) {
    r.config = std::move(msg->config);
    changed = true;
  }
  if (!(r.prp == msg->prp)) {
    r.prp = std::move(msg->prp);
    changed = true;
  }
  if (r.all != msg->all) {
    r.all = msg->all;
    changed = true;
  }
  if (!(r.echo == msg->echo)) {
    r.echo = std::move(msg->echo);
    changed = true;
  }
  if (changed) ++state_version_;
}

void RecSA::set_own_config(ConfigValue v) {
  PeerRecord& me = record(self_);
  if (me.config == v) return;
  me.config = std::move(v);
  for (const auto& fn : on_config_change_) fn(me.config);
}

void RecSA::config_set(const ConfigValue& val) {
  ++state_version_;  // the loop below writes records_ directly
  if (val.is_bottom() && !config_of(self_).is_bottom()) ++stats_.resets_started;
  if (val.is_set()) ++stats_.brute_installs;
  // Ensure entries exist for every trusted processor so a reset marks
  // joiners as well — by the end of brute force all active processors are
  // participants (paper, §3.1.1).
  for (NodeId k : fd_self_) record(k);
  for (auto& [id, rec] : records_) {
    if (id == self_) continue;
    rec.config = val;
    rec.prp = Notification::none();
  }
  record(self_).prp = Notification::none();
  record(self_).all = false;
  all_seen_.clear();
  set_own_config(val);
}

// ---------------------------------------------------------------------------
// Derived views
// ---------------------------------------------------------------------------

IdSet RecSA::part_set() const {
  IdSet part;
  for (NodeId k : fd_self_) {
    if (!config_of(k).is_non_participant()) part.insert(k);
  }
  return part;
}

IdSet RecSA::participants() const { return part_set(); }

std::optional<IdSet> RecSA::peer_part_view(NodeId id) const {
  if (id == self_) return part_set();
  auto it = records_.find(id);
  if (it == records_.end() || !it->second.fd_known) return std::nullopt;
  return it->second.part;
}

Notification RecSA::max_ntf() const {
  Notification best;  // default = "no notification"
  for (NodeId k : part_set()) {
    const Notification& n = prp_of(k);
    if (n.is_default()) continue;
    if (best.is_default() || Notification::lex_less(best, n)) best = n;
  }
  return best;
}

const ConfigValue& RecSA::chs_config_ref() const {
  if (chs_version_ == state_version_ && chs_value_ != nullptr) {
    return *chs_value_;
  }
  // choose(): deterministic pick — the minimum under the total order.
  // Tracked as a pointer: deduplication is irrelevant to the minimum, so
  // the old distinct-values vector (and its ConfigValue copies) is not
  // needed.
  const ConfigValue* best = nullptr;
  for (NodeId k : fd_self_) {
    const ConfigValue& c = config_of(k);
    if (c.is_non_participant()) continue;
    if (best == nullptr || c < *best) best = &c;
  }
  static const ConfigValue kBottom = ConfigValue::bottom();
  chs_value_ = best == nullptr ? &kBottom : best;  // null = complete collapse
  chs_version_ = state_version_;
  return *chs_value_;
}

ConfigValue RecSA::chs_config() const { return chs_config_ref(); }

bool RecSA::echo_no_all(NodeId k, const IdSet& part) const {
  if (k == self_) return true;
  auto it = records_.find(k);
  if (it == records_.end()) return false;
  return it->second.echo.part == part && it->second.echo.prp == prp_of(self_);
}

bool RecSA::same_strict(NodeId k, const IdSet& part) const {
  if (k == self_) return true;
  auto it = records_.find(k);
  if (it == records_.end()) return false;
  return it->second.part == part && it->second.prp == prp_of(self_);
}

bool RecSA::one_ahead(NodeId k, const IdSet& part) const {
  if (k == self_) return false;
  auto it = records_.find(k);
  if (it == records_.end()) return false;
  if (it->second.part != part) return false;
  const Notification& mine = prp_of(self_);
  const Notification& theirs = it->second.prp;
  if (mine.phase == 1 && mine.has_set) {
    return theirs.phase == 2 && theirs.has_set && theirs.set == mine.set;
  }
  if (mine.phase == 2 && mine.has_set) return theirs.is_default();
  return false;
}

bool RecSA::same_relaxed(NodeId k, const IdSet& part) const {
  return same_strict(k, part) || one_ahead(k, part);
}

bool RecSA::echo_complete(const IdSet& part) const {
  const EchoView want{part, prp_of(self_),
                      records_.count(self_) ? records_.at(self_).all : false};
  for (NodeId j : part) {
    if (j == self_) continue;
    auto it = records_.find(j);
    if (it == records_.end() || !(it->second.echo == want)) return false;
  }
  return true;
}

bool RecSA::all_seen_complete(const IdSet& part) const {
  for (NodeId j : part) {
    if (j == self_) {
      if (!records_.at(self_).all) return false;
      continue;
    }
    if (!all_seen_.contains(j)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Stale-information classification (Definition 3.1)
// ---------------------------------------------------------------------------

int RecSA::stale_type(const IdSet& part) const {
  // type-1: a phase-0 notification that carries a set — and, symmetrically,
  // a non-zero-phase notification that carries none (proposals always name
  // a set; only transient faults produce the other shapes).
  for (const auto& [id, rec] : records_) {
    (void)id;
    if (rec.prp.phase == 0 && rec.prp.has_set) return 1;
    if (rec.prp.phase != 0 && !rec.prp.has_set) return 1;
  }
  // type-2: a ⊥ or empty configuration anywhere in the local view.
  for (const auto& [id, rec] : records_) {
    (void)id;
    if (rec.config.is_bottom()) return 2;
    if (rec.config.is_set() && rec.config.ids().empty()) return 2;
  }
  // type-3: notification degrees out of synch. Deviation #5 (README,
  // "Deviations from the paper"): the gap threshold is 2, because the
  // token-link's coalescing delivery legitimately exhibits gap-2 snapshots
  // in fault-free runs.
  std::vector<int> degrees;
  std::vector<const IdSet*> sets;
  bool phase2_present = false;
  for (NodeId k : part) {
    auto it = records_.find(k);
    if (it == records_.end()) continue;
    const Notification& n = it->second.prp;
    if (n.is_default()) continue;
    degrees.push_back(n.degree(it->second.all));
    if (n.has_set) sets.push_back(&n.set);
    if (n.phase == 2) phase2_present = true;
  }
  if (!degrees.empty()) {
    auto [lo, hi] = std::minmax_element(degrees.begin(), degrees.end());
    if (*hi - *lo > 2) return 3;
  }
  if (phase2_present && sets.size() > 1) {
    // |notifSet| > 1 while a phase-2 notification exists: selection failed.
    for (std::size_t i = 1; i < sets.size(); ++i) {
      if (!(*sets[i] == *sets[0])) return 3;
    }
  }
  // type-4: stable views but the configuration holds no active participant.
  const ConfigValue& own = config_of(self_);
  if (own.is_proper() && own.ids().intersection_size(part) == 0) {
    bool stable = true;
    for (NodeId k : part) {
      if (k == self_) continue;
      auto it = records_.find(k);
      if (it == records_.end() || !it->second.fd_known ||
          it->second.fd != fd_self_ || it->second.part != part) {
        stable = false;
        break;
      }
    }
    if (stable) return 4;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Interface functions (Fig. 1)
// ---------------------------------------------------------------------------

bool RecSA::no_reco() const {
  if (no_reco_version_ == state_version_) return no_reco_value_;
  no_reco_value_ = compute_no_reco();
  no_reco_version_ = state_version_;
  return no_reco_value_;
}

bool RecSA::compute_no_reco() const {
  // Called once per subsystem per tick: evaluated allocation-free. The
  // participant set builds into a reusable scratch (capacity sticks) and
  // the conflict scan tracks a pointer to the first configuration instead
  // of collecting distinct copies — any second distinct value means false
  // either way.
  part_scratch_.clear();
  for (NodeId k : fd_self_) {
    if (!config_of(k).is_non_participant()) part_scratch_.insert(k);
  }
  const IdSet& part = part_scratch_;
  // (5) no delicate replacement in progress anywhere in the local view.
  for (const auto& [id, rec] : records_) {
    (void)id;
    if (!rec.prp.is_default()) return false;
  }
  // (2)+(4) configuration conflicts / reset / empty configurations.
  const ConfigValue* first = nullptr;
  for (NodeId k : fd_self_) {
    const ConfigValue& c = config_of(k);
    if (c.is_non_participant()) continue;
    if (c.is_bottom()) return false;
    if (c.is_set() && c.ids().empty()) return false;
    if (first == nullptr) {
      first = &c;
    } else if (!(*first == c)) {
      return false;  // two distinct configurations — a conflict
    }
  }
  // (1) pi is recognized by every trusted participant.
  for (NodeId j : part) {
    if (j == self_) continue;
    auto it = records_.find(j);
    if (it == records_.end() || !it->second.fd_known) return false;
    if (!it->second.fd.contains(self_)) return false;
  }
  // (3) participant sets have stabilized. The echoed-part clause is only
  // evaluable for participants (joiners receive no echoes — README,
  // "Deviations from the paper").
  const bool participant = part.contains(self_);
  for (NodeId j : part) {
    if (j == self_) continue;
    auto it = records_.find(j);
    if (it == records_.end() || it->second.part != part) return false;
    if (participant && !(it->second.echo.part == part)) return false;
  }
  return true;
}

const ConfigValue& RecSA::get_config_ref() const {
  if (no_reco()) return chs_config_ref();
  return config_of(self_);
}

ConfigValue RecSA::get_config() const { return get_config_ref(); }

bool RecSA::estab(const IdSet& proposed) {
  if (!is_participant()) return false;
  if (!no_reco()) return false;
  if (proposed.empty()) return false;
  const ConfigValue& cur = config_of(self_);
  if (cur.is_set() && cur.ids() == proposed) return false;
  record(self_).prp = Notification::proposal(1, proposed);
  record(self_).all = false;
  all_seen_.clear();
  ++stats_.proposals_accepted;
  broadcast();  // disseminate immediately so noReco() flips system-wide
  return true;
}

bool RecSA::participate() {
  if (!no_reco()) return false;
  const ConfigValue chosen = chs_config();
  // chosen is a set (join an existing configuration) or ⊥ (complete
  // collapse: seed the reset process — paper §3.1.1).
  set_own_config(chosen);
  if (chosen.is_set()) ++stats_.joins_accepted;
  return is_participant();
}

// ---------------------------------------------------------------------------
// The do-forever loop (lines 24–29)
// ---------------------------------------------------------------------------

void RecSA::tick() {
  // Every kRefresh-th tick recomputes the derived views even if nothing
  // changed, so a corrupted cache heals in bounded time.
  if (++ticks_since_bump_ >= util::kRefresh) {
    ticks_since_bump_ = 0;
    ++state_version_;
  }
  IdSet fd = fd_supplier_();
  fd.insert(self_);
  if (!(fd == fd_self_)) {
    ++state_version_;
    fd_self_ = std::move(fd);
  }

  // Line 25a — clean after crashes: entries of processors outside the
  // trusted set revert to (], dfltNtf); we erase them, which reads back
  // identically and bounds memory. Trusted non-participants cannot carry
  // notifications.
  for (auto it = records_.begin(); it != records_.end();) {
    if (it->first != self_ && !fd_self_.contains(it->first)) {
      ++state_version_;
      all_seen_.erase(it->first);
      it = records_.erase(it);
    } else {
      // pk ∉ FD[i].part — non-participants (including pi itself) cannot
      // carry notifications.
      PeerRecord& rec = it->second;
      if (rec.config.is_non_participant() &&
          (!(rec.prp == kDefaultNtf) || rec.all)) {
        ++state_version_;
        rec.prp = Notification::none();
        rec.all = false;
      }
      ++it;
    }
  }

  IdSet part = part_set();

  // Line 25b — stale-information tests (Definition 3.1).
  if (int t = stale_type(part); t != 0) {
    ++stats_.stale_detected[t];
    config_set(ConfigValue::bottom());
    part = part_set();
  }

  const Notification m = max_ntf();
  if (m.is_default()) {
    // ---- Brute-force stabilization (lines 26) ----
    // Two distinct proper configurations among the trusted records are a
    // conflict. Compared against the first one in place, like choose():
    // no vector of copies.
    const ConfigValue* first = nullptr;
    bool conflict = false;
    for (NodeId k : fd_self_) {
      const ConfigValue& c = config_of(k);
      if (c.is_non_participant() || c.is_bottom()) continue;
      if (first == nullptr) {
        first = &c;
      } else if (c != *first) {
        conflict = true;
        break;
      }
    }
    if (conflict) {
      ++stats_.stale_detected[2];
      config_set(ConfigValue::bottom());
    }
    if (config_of(self_).is_bottom()) {
      // Reset completes when every trusted processor reports the same
      // trusted set: config ← FD[i].
      bool agree = true;
      for (NodeId k : fd_self_) {
        if (k == self_) continue;
        auto it = records_.find(k);
        if (it == records_.end() || !it->second.fd_known ||
            it->second.fd != fd_self_) {
          agree = false;
          break;
        }
      }
      if (agree) config_set(ConfigValue::set(fd_self_));
    }
    if (!is_participant()) {
      // Ghost-participant repair (README, "Deviations from the paper"): a
      // transient fault can wipe our own participation mark while every
      // participant still lists us in its participant set. Since we never
      // broadcast as a non-participant, their records would never refresh
      // and the participant views would disagree forever. When the whole
      // quorum already counts us in, re-adopt participation. Fresh joiners
      // are never listed, so the admission path is untouched.
      const IdSet part = part_set();
      bool listed_by_all = !part.empty();
      for (NodeId k : part) {
        auto it = records_.find(k);
        if (it == records_.end() || !it->second.fd_known ||
            !it->second.part.contains(self_)) {
          listed_by_all = false;
          break;
        }
      }
      if (listed_by_all) {
        const ConfigValue chosen = chs_config();
        if (chosen.is_proper()) set_own_config(chosen);
      }
    }
  } else if (is_participant()) {
    // ---- Delicate replacement (lines 28) ----
    PeerRecord& me = record(self_);
    // Selection: adopt the lexically maximal notification (Claim 3.12(1)
    // requires adoption before the barrier; deviation #3 in README,
    // "Deviations from the paper"). A node one step behind advances through
    // its own transition instead, and a finished replacement (phase-2 set
    // already installed) is not re-adopted.
    const bool mine_one_behind = me.prp.phase == 1 && me.prp.has_set &&
                                 m.phase == 2 && m.set == me.prp.set;
    const bool finished = m.phase == 2 && config_of(self_).is_set() &&
                          config_of(self_).ids() == m.set;
    if (Notification::lex_less(me.prp, m) && !mine_one_behind && !finished &&
        !(me.prp == m)) {
      me.prp = m;
      me.all = false;
      all_seen_.clear();
      if (m.phase == 2) {
        // Catching up directly into phase 2 installs the set as well
        // (the effect of the 1→2 transition we skipped).
        set_own_config(ConfigValue::set(m.set));
        ++stats_.delicate_installs;
      }
    }

    if (!me.prp.is_default()) {
      // all[i] ← every trusted participant echoed my values and reports the
      // same (participant set, notification) — with the one-phase-ahead
      // relaxation (deviation #4 in README, "Deviations from the paper").
      bool new_all = true;
      for (NodeId k : part) {
        if (!(echo_no_all(k, part) && same_relaxed(k, part))) {
          new_all = false;
          break;
        }
      }
      me.all = new_all;
      // allSeen accumulates participants observed to have completed the
      // current phase.
      for (NodeId k : part) {
        if (k == self_) {
          if (me.all) all_seen_.insert(k);
          continue;
        }
        auto it = records_.find(k);
        if (it == records_.end()) continue;
        if (one_ahead(k, part) ||
            (echo_no_all(k, part) && same_relaxed(k, part) && it->second.all)) {
          all_seen_.insert(k);
        }
      }
      // Barrier: everyone echoed my triple and everyone finished the phase.
      if (echo_complete(part) && all_seen_complete(part)) {
        ++stats_.phase_transitions;
        const std::uint8_t next = (me.prp.phase == 1) ? 2 : 0;  // increment()
        all_seen_.clear();
        me.all = false;
        if (next == 2) {
          me.prp.phase = 2;
          set_own_config(ConfigValue::set(me.prp.set));
          ++stats_.delicate_installs;
        } else {
          me.prp = Notification::none();
        }
      }
    }
  }

  broadcast();
}

void RecSA::broadcast() {
  if (!is_participant()) {
    // Non-participants must not broadcast (line 29 guard); they only follow.
    mux_.clear_state_all(dlink::kPortRecSA);
    published_.forget();
    return;
  }
  if (!published_.skip(state_version_)) publish();
  // Stop talking to processors we no longer trust.
  mux_.for_each_peer([&](NodeId peer) {
    if (!fd_self_.contains(peer)) mux_.clear_state(dlink::kPortRecSA, peer);
  });
}

void RecSA::publish() {
  // Encoded field-by-field from references, byte-identical to
  // RecSAMessage::encode(): the old per-peer message staging copied four
  // sets per trusted peer on every do-forever iteration, which dominated
  // the simulator's allocation profile.
  bcast_scratch_.clear();
  for (NodeId k : fd_self_) {
    if (!config_of(k).is_non_participant()) bcast_scratch_.insert(k);
  }
  const ConfigValue& own_config = config_of(self_);
  const Notification& own_prp = prp_of(self_);
  const bool own_all = records_.at(self_).all;
  for (NodeId j : fd_self_) {
    if (j == self_) continue;
    wire::Writer w;
    w.id_set(fd_self_);
    w.id_set(bcast_scratch_);
    own_config.encode(w);
    own_prp.encode(w);
    w.boolean(own_all);
    auto it = records_.find(j);
    if (it != records_.end()) {
      // echo = what j last told us (its part/prp/all view).
      w.id_set(it->second.part);
      it->second.prp.encode(w);
      w.boolean(it->second.all);
    } else {
      static const EchoView kEmptyEcho;
      kEmptyEcho.encode(w);
    }
    mux_.publish_state(dlink::kPortRecSA, j, w.take());
  }
  published_.ran(state_version_);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

namespace {
IdSet random_subset(Rng& rng, const IdSet& universe) {
  IdSet out;
  for (NodeId id : universe) {
    if (rng.chance(0.5)) out.insert(id);
  }
  return out;
}

ConfigValue random_config(Rng& rng, const IdSet& universe) {
  switch (rng.next_below(4)) {
    case 0:
      return ConfigValue::non_participant();
    case 1:
      return ConfigValue::bottom();
    default:
      return ConfigValue::set(random_subset(rng, universe));
  }
}

Notification random_ntf(Rng& rng, const IdSet& universe) {
  if (rng.chance(0.3)) return Notification::none();
  Notification n;
  n.phase = static_cast<std::uint8_t>(rng.next_below(3));
  n.has_set = rng.chance(0.8);
  if (n.has_set) n.set = random_subset(rng, universe);
  return n;
}
}  // namespace

void RecSA::inject_corruption(Rng& rng, const IdSet& universe) {
  ++state_version_;
  records_.clear();
  fd_self_ = random_subset(rng, universe);
  fd_self_.insert(self_);
  for (NodeId k : universe) {
    if (!rng.chance(0.7)) continue;
    PeerRecord rec;
    rec.fd = random_subset(rng, universe);
    rec.part = random_subset(rng, universe);
    rec.fd_known = rng.chance(0.8);
    rec.config = random_config(rng, universe);
    rec.prp = random_ntf(rng, universe);
    rec.all = rng.chance(0.5);
    rec.echo = EchoView{random_subset(rng, universe), random_ntf(rng, universe),
                        rng.chance(0.5)};
    records_[k] = rec;
  }
  if (!records_.count(self_)) records_[self_] = PeerRecord{};
  records_[self_].config = random_config(rng, universe);
  records_[self_].prp = random_ntf(rng, universe);
  all_seen_ = random_subset(rng, universe);
}

void RecSA::inject_config(NodeId entry, ConfigValue v) {
  record(entry).config = std::move(v);
}

void RecSA::inject_notification(NodeId entry, Notification n) {
  record(entry).prp = std::move(n);
}

}  // namespace ssr::reconf
