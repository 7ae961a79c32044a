#include "label/labeling.hpp"

namespace ssr::label {

namespace {
/// cleanLP(x) — voids a pair naming any non-member creator (Alg. 4.1).
LabelPair clean_lp(LabelPair x, const IdSet& members) {
  if (x.has_foreign_creator(members)) return LabelPair::null();
  return x;
}
}  // namespace

Labeling::Labeling(dlink::LinkMux& mux, reconf::RecSA& recsa, NodeId self,
                   StoreConfig cfg, Rng rng)
    : mux_(mux), recsa_(recsa), self_(self), store_(self, cfg, rng) {
  mux_.subscribe(dlink::kPortLabel, [this](NodeId from, const wire::Bytes& d) {
    on_message(from, d);
  });
}

bool Labeling::conf_change(const reconf::ConfigValue& cur) const {
  return !cur.is_proper() || !(cur.ids() == store_.members());
}

wire::Bytes Labeling::encode_exchange(NodeId peer) {
  wire::Writer w;
  // transmit ⟨max[i], max[k]⟩ ← ⟨cleanLP(max[i]), cleanLP(max[k])⟩ (line 17).
  LabelPair mine = clean_lp(store_.local_max(), store_.members());
  const LabelPair* theirs = store_.max_entry(peer);
  LabelPair echo =
      theirs ? clean_lp(*theirs, store_.members()) : LabelPair::null();
  mine.encode(w);
  echo.encode(w);
  return w.take();
}

void Labeling::tick() {
  const reconf::ConfigValue& cur = recsa_.get_config_ref();
  const bool no_reco = recsa_.no_reco();

  member_ = cur.is_proper() && cur.ids().contains(self_) &&
            recsa_.is_participant();
  if (!member_) {
    mux_.clear_state_all(dlink::kPortLabel);
    published_.forget();
    return;
  }

  // Lines 9–14: absorb a completed reconfiguration.
  if (no_reco && conf_change(cur)) {
    ++stats_.rebuilds;
    store_.rebuild(cur.ids());
    store_.empty_all_queues();
    store_.clean_max(cur.ids());
    store_.refresh();  // labelReceiptAction(⟨⊥, max[i], pi⟩)
  }

  // Lines 15–17: transmit to every other member, unless reconfiguring.
  // The exchange is a function of the store alone: an unchanged store
  // leaves the slots holding exactly what a re-encode would put there.
  if (no_reco && !conf_change(cur)) {
    if (!published_.skip(store_.version())) {
      for (NodeId k : store_.members()) {
        if (k == self_) continue;
        mux_.publish_state(dlink::kPortLabel, k, encode_exchange(k));
      }
      published_.ran(store_.version());
    }
  } else {
    published_.forget();
  }
  mux_.for_each_peer([&](NodeId peer) {
    if (!store_.members().contains(peer))
      mux_.clear_state(dlink::kPortLabel, peer);
  });
}

void Labeling::on_message(NodeId from, const wire::Bytes& data) {
  // Lines 18–22: receive ⟨sentMax, lastSent⟩ from a member.
  if (!member_) return;
  if (!store_.members().contains(from)) return;
  const reconf::ConfigValue& cur = recsa_.get_config_ref();
  if (!recsa_.no_reco() || conf_change(cur)) return;
  wire::Reader r(data);
  LabelPair sent_max = LabelPair::decode(r);
  LabelPair last_sent = LabelPair::decode(r);
  if (!r.ok() || !r.exhausted()) return;
  store_.clean_max(store_.members());
  sent_max = clean_lp(sent_max, store_.members());
  last_sent = clean_lp(last_sent, store_.members());
  ++stats_.exchanges;
  store_.receipt(sent_max, last_sent, from);
}

}  // namespace ssr::label
