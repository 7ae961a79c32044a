#include "counter/counter_algo.hpp"

namespace ssr::counter {

namespace {
CounterPair clean_cp(CounterPair x, const IdSet& members) {
  if (x.has_foreign_creator(members)) return CounterPair::null();
  return x;
}
}  // namespace

CounterManager::CounterManager(dlink::LinkMux& mux, reconf::RecSA& recsa,
                               NodeId self, CounterConfig cfg, Rng rng)
    : mux_(mux),
      recsa_(recsa),
      self_(self),
      cfg_(cfg),
      store_(self, cfg.store, rng) {
  mux_.subscribe(dlink::kPortCounter,
                 [this](NodeId from, const wire::Bytes& d) {
                   on_message(from, d);
                 });
}

bool CounterManager::conf_change(const reconf::ConfigValue& cur) const {
  return !cur.is_proper() || !(cur.ids() == store_.members());
}

void CounterManager::cancel_exhausted() {
  const auto cancel = [&](NodeId, CounterPair& p) {
    if (!p.legit() || !p.exhausted(cfg_.exhaust_bound)) return false;
    p.cancel_exhausted();
    ++stats_.exhaust_cancels;
    return true;
  };
  store_.for_each_max(cancel);
  store_.for_each_stored(cancel);
}

void CounterManager::find_max() {
  cancel_exhausted();
  store_.refresh();
}

void CounterManager::adopt_local(const Counter& c) {
  store_.inject_max(self_, CounterPair::of(c));
  store_.refresh();  // records the new counter in its creator's queue
}

wire::Bytes CounterManager::encode_exchange(NodeId peer) {
  wire::Writer w;
  w.u8(CounterMsg::kExchange);
  CounterPair mine = clean_cp(store_.local_max(), store_.members());
  const CounterPair* theirs = store_.max_entry(peer);
  CounterPair echo =
      theirs ? clean_cp(*theirs, store_.members()) : CounterPair::null();
  mine.encode(w);
  echo.encode(w);
  return w.take();
}

void CounterManager::tick() {
  const reconf::ConfigValue& cur = recsa_.get_config_ref();
  const bool no_reco = recsa_.no_reco();

  member_ = cur.is_proper() && cur.ids().contains(self_) &&
            recsa_.is_participant();
  if (!member_) {
    mux_.clear_state_all(dlink::kPortCounter);
    published_.forget();
    return;
  }

  if (no_reco && conf_change(cur)) {  // lines 14–19
    ++stats_.rebuilds;
    store_.rebuild(cur.ids());
    store_.empty_all_queues();
    store_.clean_max(cur.ids());
    find_max();
  }

  if (no_reco && !conf_change(cur)) {  // lines 20–22
    cancel_exhausted();
    // The exchange is a function of the store alone: an unchanged store
    // leaves the slots holding exactly what a re-encode would put there.
    if (!published_.skip(store_.version())) {
      for (NodeId k : store_.members()) {
        if (k == self_) continue;
        mux_.publish_state(dlink::kPortCounter, k, encode_exchange(k));
      }
      published_.ran(store_.version());
    }
  } else {
    published_.forget();
  }
  mux_.for_each_peer([&](NodeId peer) {
    if (!store_.members().contains(peer))
      mux_.clear_state(dlink::kPortCounter, peer);
  });
}

void CounterManager::serve_read(NodeId from, std::uint32_t op) {
  wire::Writer w;
  w.u8(CounterMsg::kReadResp);
  w.u32(op);
  if (member_ && recsa_.no_reco()) {  // lines 20–24 of Algorithm 4.4
    ++stats_.reads_served;
    find_max();
    w.boolean(false);
    store_.local_max().encode(w);
  } else {
    ++stats_.aborts_sent;
    w.boolean(true);
    CounterPair::null().encode(w);
  }
  mux_.send_datagram(dlink::kPortCounter, from, w.take());
}

void CounterManager::serve_write(NodeId from, std::uint32_t op,
                                 const Counter& c) {
  wire::Writer w;
  w.u8(CounterMsg::kWriteResp);
  w.u32(op);
  if (member_ && recsa_.no_reco()) {  // lines 32–36 of Algorithm 4.4
    CounterPair incoming = clean_cp(CounterPair::of(c), store_.members());
    // Epoch-boundary guard: after exhaustion every member mints a fresh
    // label, and only one that dominates every label this server has ever
    // stored may seed the next epoch — including *cancelled* labels, since
    // exhausted epochs carried completed counters that later increments
    // must exceed. A write whose label is strictly below any stored label
    // is refused so a completed increment can never be ≺ct-below an
    // earlier completed one. Same-label writes are always accepted —
    // concurrent increments of one epoch are legal and ordered by writer
    // id (paper §4.2).
    find_max();
    bool stale_label = false;
    if (incoming.has_main()) {
      const Label& lbl = incoming.main();
      const auto check = [&](NodeId, CounterPair& p) {
        if (!stale_label && p.has_main() && !(p.main() == lbl) &&
            Label::total_less(lbl, p.main())) {
          stale_label = true;
        }
        return false;  // reads only
      };
      store_.for_each_max(check);
      store_.for_each_stored(check);
    }
    if (stale_label) {
      ++stats_.aborts_sent;
      w.boolean(true);
      mux_.send_datagram(dlink::kPortCounter, from, w.take());
      return;
    }
    ++stats_.writes_served;
    if (incoming.has_main()) {
      // maxC[j] ← max_ct(maxj, maxC[j]); enqueue into the creator's queue.
      store_.receipt(incoming, CounterPair::null(), from);
      cancel_exhausted();
      store_.refresh();
    }
    w.boolean(false);
  } else {
    ++stats_.aborts_sent;
    w.boolean(true);
  }
  mux_.send_datagram(dlink::kPortCounter, from, w.take());
}

void CounterManager::on_message(NodeId from, const wire::Bytes& data) {
  wire::Reader r(data);
  const std::uint8_t tag = r.u8();
  switch (tag) {
    case CounterMsg::kExchange: {
      if (!member_) return;
      if (!store_.members().contains(from)) return;
      const reconf::ConfigValue& cur = recsa_.get_config_ref();
      if (!recsa_.no_reco() || conf_change(cur)) return;  // line 24
      CounterPair sent_max = CounterPair::decode(r);
      CounterPair last_sent = CounterPair::decode(r);
      if (!r.ok() || !r.exhausted()) return;
      store_.clean_max(store_.members());
      sent_max = clean_cp(sent_max, store_.members());
      last_sent = clean_cp(last_sent, store_.members());
      ++stats_.exchanges;
      cancel_exhausted();
      store_.receipt(sent_max, last_sent, from);
      return;
    }
    case CounterMsg::kReadReq: {
      const std::uint32_t op = r.u32();
      if (!r.ok() || !r.exhausted()) return;
      serve_read(from, op);
      return;
    }
    case CounterMsg::kWriteReq: {
      const std::uint32_t op = r.u32();
      auto c = Counter::decode(r);
      if (!r.ok() || !r.exhausted() || !c) return;
      serve_write(from, op, *c);
      return;
    }
    case CounterMsg::kReadResp:
    case CounterMsg::kWriteResp: {
      const std::uint32_t op = r.u32();
      const bool abort = r.boolean();
      CounterPair pair = tag == CounterMsg::kReadResp ? CounterPair::decode(r)
                                                      : CounterPair::null();
      if (!r.ok() || !r.exhausted()) return;
      for (const auto& handler : resp_handlers_) {
        handler(from, tag, op, abort, pair);
      }
      return;
    }
    default:
      return;  // unknown tag — corrupted
  }
}

}  // namespace ssr::counter
