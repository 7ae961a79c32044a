#include "reconf/recma.hpp"

namespace ssr::reconf {

namespace {
/// Flag exchange message (lines 19–20): ⟨noMaj, needReconf⟩.
wire::Bytes encode_flags(bool no_maj, bool need_reconf) {
  wire::Writer w;
  w.boolean(no_maj);
  w.boolean(need_reconf);
  return w.take();
}
}  // namespace

RecMA::RecMA(dlink::LinkMux& mux, RecSA& recsa, NodeId self, EvalConf eval)
    : mux_(mux), recsa_(recsa), self_(self), eval_(std::move(eval)) {
  mux_.subscribe(dlink::kPortRecMA,
                 [this](NodeId from, const wire::Bytes& data) {
                   on_message(from, data);
                 });
}

void RecMA::on_message(NodeId from, const wire::Bytes& data) {
  // Line 20: only participants consume the flag exchange.
  if (!recsa_.is_participant()) return;
  wire::Reader r(data);
  Flags f;
  f.no_maj = r.boolean();
  f.need_reconf = r.boolean();
  if (!r.ok() || !r.exhausted()) return;
  flags_[from] = f;
}

IdSet RecMA::core() const {
  // core() = ∩_{pj ∈ FD[i].part} FD[j].part. A missing view makes the core
  // unevaluable; we return ∅ (no unilateral brute trigger on partial data).
  IdSet part = recsa_.participants();
  IdSet acc = part;
  for (NodeId j : part) {
    auto view = recsa_.peer_part_view(j);
    if (!view) return IdSet{};
    acc = acc.intersect(*view);
  }
  return acc;
}

void RecMA::flush_flags() {
  ++stats_.flag_flushes;
  flags_.clear();
}

void RecMA::tick() {
  // Line 6: essentially executed only by participants.
  if (!recsa_.is_participant()) {
    mux_.clear_state_all(dlink::kPortRecMA);
    published_.forget();
    return;
  }

  const ConfigValue& cur = recsa_.get_config_ref();  // line 7
  Flags& mine = flags_[self_];
  mine.no_maj = false;  // line 8
  mine.need_reconf = false;

  // Line 9: a configuration change invalidates every collected flag.
  if (prev_config_ && !(*prev_config_ == cur)) flush_flags();

  if (recsa_.no_reco() && cur.is_proper()) {  // line 10
    prev_config_ = cur;                       // line 11
    const IdSet& cfg = cur.ids();
    const IdSet& fd = recsa_.trusted();
    const std::size_t alive_members = cfg.intersection_size(fd);
    const std::size_t majority = cfg.size() / 2 + 1;

    Flags& my_flags = flags_[self_];
    if (alive_members < majority) my_flags.no_maj = true;  // line 12

    const IdSet c = core();
    bool core_agrees = my_flags.no_maj && c.size() > 1;
    if (core_agrees) {
      for (NodeId k : c) {
        if (k == self_) continue;
        auto it = flags_.find(k);
        if (it == flags_.end() || !it->second.no_maj) {
          core_agrees = false;
          break;
        }
      }
    }
    if (core_agrees) {
      // Lines 13–14: the whole core failed to see a members' majority.
      if (recsa_.estab(recsa_.participants())) ++stats_.majority_loss_triggers;
      flush_flags();
    } else if (direct_trigger_) {
      // Algorithm 4.6: the coordinator alone decides (line 17 replacement).
      if (direct_trigger_()) {
        if (recsa_.estab(recsa_.participants())) ++stats_.eval_conf_triggers;
        flush_flags();
      }
    } else {
      // Lines 16–18: application-driven reconfiguration.
      Flags& f = flags_[self_];
      f.need_reconf = eval_(cfg);
      if (f.need_reconf) {
        std::size_t votes = 0;
        for (NodeId j : cfg) {
          if (!fd.contains(j)) continue;
          if (j == self_) {
            ++votes;
            continue;
          }
          auto it = flags_.find(j);
          if (it != flags_.end() && it->second.need_reconf) ++votes;
        }
        if (votes > cfg.size() / 2) {
          if (recsa_.estab(recsa_.participants())) ++stats_.eval_conf_triggers;
          flush_flags();
        }
      }
    }
  }

  broadcast();  // line 19
}

void RecMA::broadcast() {
  const Flags& mine = flags_[self_];
  const IdSet part = recsa_.participants();
  // The slots already hold these flags for these participants unless
  // either changed since the last publish.
  const std::uint64_t flags =
      (mine.no_maj ? 2u : 0u) | (mine.need_reconf ? 1u : 0u);
  if (!published_.skip(flags, part == published_part_)) {
    for (NodeId j : part) {
      if (j == self_) continue;
      mux_.publish_state(dlink::kPortRecMA, j,
                         encode_flags(mine.no_maj, mine.need_reconf));
    }
    published_part_ = part;
    published_.ran(flags);
  }
  mux_.for_each_peer([&](NodeId peer) {
    if (!part.contains(peer)) mux_.clear_state(dlink::kPortRecMA, peer);
  });
}

void RecMA::inject_flags(NodeId entry, bool no_maj, bool need_reconf) {
  flags_[entry] = Flags{no_maj, need_reconf};
}

}  // namespace ssr::reconf
