#pragma once

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "label/label.hpp"
#include "util/id_set.hpp"
#include "util/memo.hpp"

namespace ssr::label {

struct StoreConfig {
  /// storedLabels[i] queue bound — the paper uses (v(v²+m))+v; we size the
  /// antisting set to the queue bound instead so that nextLabel() always
  /// dominates everything stored (README, "Deviations from the paper").
  std::size_t own_queue_capacity = Label::kAntistings;
  /// storedLabels[j], j ≠ i: bound v+m in the paper.
  std::size_t peer_queue_capacity = 12;
};

struct StoreStats {
  std::uint64_t created = 0;       // nextLabel() invocations
  std::uint64_t cancellations = 0; // pairs cancelled by stored evidence
  std::uint64_t stale_flushes = 0; // emptyAllQueues() due to staleInfo()
  std::uint64_t receipts_skipped = 0;  // repeats of a no-op receipt
};

/// The receipt action of Algorithm 4.2, generic over the pair type: the
/// paper runs the *same* maintenance for label pairs (Algorithm 4.1/4.2)
/// and counter pairs (Algorithm 4.3, "adjusted for counter structures").
///
/// Requirements on P: has_main(), legit(), creator(), main() → Label,
/// same_main(P), cancel_with(Label), merge_from(P) → bool (in-place
/// duplicate resolution; true when it changed the pair),
/// has_foreign_creator(IdSet), static total_less(P,P), static null(),
/// operator==.
///
/// version() moves on every change of max_, stored_ or members_, and a
/// receipt, refresh or visitor that changes nothing leaves it alone. So a
/// sender can skip re-encoding an unchanged exchange, and a receipt that
/// repeats a no-op can be skipped (see receipt()).
template <class P>
class PairStore {
 public:
  /// Creates a fresh pair greater than all `known` same-creator pairs.
  /// Takes the stored queue directly (rather than a vector copy of it) so
  /// the steady-state maintenance path never materializes temporaries.
  // ssr-lint: allow(hot-path-alloc) one type-erased hook bound at store
  // construction, invoked only when a label is minted — not per receipt.
  using CreateFn = std::function<P(const std::deque<P>& known)>;

  PairStore(NodeId self, StoreConfig cfg, CreateFn create)
      : self_(self), cfg_(cfg), create_(std::move(create)) {
    // ssr-lint: allow(hot-path-alloc, memo-invalidate) constructor-time
    // membership seed, before any memo exists.
    members_.insert(self_);
  }

  /// Rebuild for a new configuration (operator rebuild(v) of Alg. 4.1):
  /// non-member structures are dropped and every queue is emptied.
  void rebuild(const IdSet& members) {
    ++version_;
    members_ = members;
    stored_.clear();
    for (auto it = max_.begin(); it != max_.end();) {
      if (!members_.contains(it->first)) {
        it = max_.erase(it);
      } else {
        ++it;
      }
    }
    std::erase_if(receipts_,
                  [&](const auto& kv) { return !members_.contains(kv.first); });
    clean_max(members);
  }

  void empty_all_queues() {
    ++version_;
    stored_.clear();
  }

  /// cleanMax(): voids max entries holding labels by non-member creators.
  void clean_max(const IdSet& members) {
    for (auto& [id, pair] : max_) {
      (void)id;
      if (pair.has_foreign_creator(members)) {
        pair = P::null();
        ++version_;
      }
    }
  }

  /// The labelReceiptAction / counterReceiptAction. `from == self` with
  /// null arguments acts as the argument-less refresh.
  ///
  /// A receipt from a member returns at once when the previous receipt
  /// from `from` carried the same two pairs, changed nothing, and the
  /// store has not changed since: running it again would change nothing
  /// either. Every util::kRefresh-th such repeat still runs in full.
  void receipt(const P& sent_max, const P& last_sent, NodeId from) {
    if (from == self_ || !members_.contains(from)) {
      apply_receipt(sent_max, last_sent, from);
      return;
    }
    // ssr-lint: allow(hot-path-alloc) one memo per member, made on its
    // first receipt and dropped by rebuild() with its max entry.
    ReceiptMemo& m = receipts_[from];
    const bool same = m.sent_max == sent_max && m.last_sent == last_sent;
    if (m.memo.skip(version_, same)) {
      ++stats_.receipts_skipped;
      return;
    }
    const std::uint64_t before = version_;
    apply_receipt(sent_max, last_sent, from);
    if (version_ != before) {
      m.memo.forget();
      return;
    }
    if (!same) {
      m.sent_max = sent_max;
      m.last_sent = last_sent;
    }
    m.memo.ran(version_);
  }

  /// Argument-less maintenance (used after rebuilds and by refresh loops).
  void refresh() { maintain(); }

  /// Moves on every change of max_, stored_ or members_.
  std::uint64_t version() const { return version_; }

  const P& local_max() {
    // ssr-lint: allow(memo-invalidate) inserting an empty entry changes
    // nothing any reader sees.
    return max_[self_];
  }
  const P* max_entry(NodeId j) const {
    auto it = max_.find(j);
    return it == max_.end() ? nullptr : &it->second;
  }
  const std::deque<P>* queue(NodeId j) const {
    auto it = stored_.find(j);
    return it == stored_.end() ? nullptr : &it->second;
  }
  const IdSet& members() const { return members_; }
  const StoreStats& stats() const { return stats_; }

  /// Fault injection: plants an arbitrary pair in a queue / max entry.
  void inject_stored(NodeId j, P pair) {
    ++version_;
    // ssr-lint: allow(hot-path-alloc) test-only fault injection, never on
    // the maintenance path.
    stored_[j].push_front(std::move(pair));
  }
  void inject_max(NodeId j, P pair) {
    ++version_;
    max_[j] = std::move(pair);
  }

  /// Mutable sweep over the max entries (the counter layer cancels
  /// exhausted counters before maintenance — cancelExhaustedMaxC()). The
  /// visitor returns true when it changed the pair.
  // ssr-lint: allow(hot-path-alloc) visitor taken by const reference; a
  // capture-light lambda binds to it without heap allocation.
  void for_each_max(const std::function<bool(NodeId, P&)>& fn) {
    for (auto& [j, mp] : max_) {
      if (fn(j, mp)) ++version_;
    }
  }
  // ssr-lint: allow(hot-path-alloc) same visitor idiom as for_each_max.
  void for_each_stored(const std::function<bool(NodeId, P&)>& fn) {
    for (auto& [j, q] : stored_) {
      for (P& lp : q) {
        if (fn(j, lp)) ++version_;
      }
    }
  }

 private:
  /// What the last receipt from one member carried, and the version it
  /// left the store at when it changed nothing.
  struct ReceiptMemo {
    P sent_max = P::null();
    P last_sent = P::null();
    util::Memo memo;
  };

  std::deque<P>& labels_of(NodeId creator) {
    // ssr-lint: allow(memo-invalidate) an empty queue reads as no queue.
    return stored_[creator];
  }

  /// dst = src, counted as a change only when the value differs.
  void assign(P& dst, const P& src) {
    if (dst == src) return;
    dst = src;
    ++version_;
  }

  void apply_receipt(const P& sent_max, const P& last_sent, NodeId from) {
    if (from != self_) assign(max_[from], sent_max);  // line 18
    // Line 19: the peer echoed a cancellation of our own max.
    P& mine = max_[self_];
    if (last_sent.has_main() && !last_sent.legit() && mine.has_main() &&
        mine.same_main(last_sent)) {
      assign(mine, last_sent);
    }
    maintain();
  }

  bool stale_info() const {
    for (const auto& [j, q] : stored_) {
      bool legit_seen = false;
      for (const P& lp : q) {
        if (!lp.has_main() || lp.creator() != j) return true;
        if (lp.legit()) {
          if (legit_seen) return true;  // double: two legit in one queue
          legit_seen = true;
        }
      }
      // double: two copies of the same main label.
      for (std::size_t a = 0; a < q.size(); ++a) {
        for (std::size_t b = a + 1; b < q.size(); ++b) {
          if (q[a].same_main(q[b])) return true;
        }
      }
    }
    return false;
  }

  void dedupe(NodeId j, std::deque<P>& q) {
    (void)j;
    // In place: elements before `i` are the already-deduped prefix (the
    // "kept" list); a later same-main element merges into the earliest
    // occurrence and is erased. Mirrors the old copy-out pass exactly —
    // same merge order, same survivor order — without the temporary deque,
    // so steady-state maintenance stays allocation-free.
    for (std::size_t i = 0; i < q.size();) {
      bool merged = false;
      for (std::size_t k = 0; k < i; ++k) {
        if (q[k].same_main(q[i])) {
          q[k].merge_from(q[i]);
          merged = true;
          break;
        }
      }
      if (merged) {
        ++version_;
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    // Two distinct legit labels by one creator: keep the most recent (queue
    // front), cancel is produced later by the notgeq pass if warranted.
    bool legit_seen = false;
    for (P& lp : q) {
      if (!lp.legit()) continue;
      if (legit_seen) {
        // Cancel the older legit with the newer as evidence.
        for (const P& ev : q) {
          if (ev.legit() && !(&ev == &lp)) {
            lp.cancel_with(ev.main());
            ++version_;
            break;
          }
        }
      }
      legit_seen = true;
    }
  }

  void enforce_capacity(NodeId j, std::deque<P>& q) {
    const std::size_t cap =
        j == self_ ? cfg_.own_queue_capacity : cfg_.peer_queue_capacity;
    while (q.size() > cap) {
      q.pop_back();
      ++version_;
    }
  }

  void maintain() {
    // staleInfo() → emptyAllQueues() (line 20).
    if (stale_info()) {
      ++stats_.stale_flushes;
      ++version_;
      stored_.clear();
    }
    // Line 21: record every max entry in its creator's queue. A same-main
    // entry is merged instead of duplicated (the counter variant's enqueue:
    // "only maintains the instance with the greatest counter w.r.t. ≺ct").
    for (auto& [j, mp] : max_) {
      (void)j;
      if (!mp.has_main()) continue;
      if (!members_.contains(mp.creator())) continue;
      auto& q = labels_of(mp.creator());
      bool exists = false;
      for (P& lp : q) {
        if (lp.same_main(mp)) {
          if (lp.merge_from(mp)) ++version_;
          exists = true;
          break;
        }
      }
      if (!exists) {
        ++version_;
        // ssr-lint: allow(hot-path-alloc) steady state merges in place
        // (same_main above); a new front entry only appears when a label
        // actually changes, and deque growth is bounded by enforce_capacity
        // so freed chunks recycle through the allocator.
        q.push_front(mp);
        enforce_capacity(mp.creator(), q);
      }
    }
    // Line 22: cancel stored legit pairs that are provably not maximal.
    for (auto& [j, q] : stored_) {
      (void)j;
      for (P& lp : q) {
        if (!lp.legit()) continue;
        for (const P& other : q) {
          if (other.same_main(lp)) continue;
          if (!other.has_main()) continue;
          if (!Label::cancels(other.main(), lp.main())) {
            // other ⋠lb lp fails: `other` is not below lp → evidence.
            lp.cancel_with(other.main());
            ++stats_.cancellations;
            ++version_;
            break;
          }
        }
      }
    }
    // Line 23: propagate cancellations carried by max entries into queues.
    for (auto& [j, mp] : max_) {
      (void)j;
      if (!mp.has_main() || mp.legit()) continue;
      if (!members_.contains(mp.creator())) continue;
      auto& q = labels_of(mp.creator());
      for (P& lp : q) {
        if (lp.legit() && lp.same_main(mp)) assign(lp, mp);
      }
    }
    // Line 24: remove doubles.
    for (auto& [j, q] : stored_) dedupe(j, q);
    // Line 25: apply stored cancellation evidence to legit max entries.
    for (auto& [j, mp] : max_) {
      (void)j;
      if (!mp.has_main() || !mp.legit()) continue;
      if (!members_.contains(mp.creator())) continue;
      auto& q = labels_of(mp.creator());
      for (const P& lp : q) {
        if (!lp.legit() && lp.same_main(mp)) {
          assign(mp, lp);
          break;
        }
      }
    }
    // Lines 26–27: adopt the maximal legit label, or fall back to our own.
    const P* best_ptr = nullptr;
    for (const auto& [j, mp] : max_) {
      (void)j;
      if (!mp.legit()) continue;
      if (!members_.contains(mp.creator())) continue;
      if (best_ptr == nullptr || P::total_less(*best_ptr, mp)) best_ptr = &mp;
    }
    if (best_ptr != nullptr) {
      // Assigned in place (std::map entries never move), so the adoption
      // step copies, and allocates, only while the adopted label changes.
      P& mine = max_[self_];
      assign(mine, *best_ptr);
      const P& best = mine;
      // Epoch-refresh rule (README, "Deviations from the paper"): if one
      // of our *own* cancelled labels still compares above the adopted best
      // (an exhausted epoch we created), no other processor can mint a
      // label restoring the global order — only a fresh label of ours
      // dominates it. Mint one. The fresh label covers our cancelled
      // stings, so this fires at most once per cancellation event.
      bool own_cancelled_above = false;
      for (const P& lp : labels_of(self_)) {
        if (!lp.has_main() || lp.legit()) continue;
        if (P::total_less(best, lp)) {
          own_cancelled_above = true;
          break;
        }
      }
      if (own_cancelled_above) mint_fresh();
    } else {
      use_own();
    }
  }

  void use_own() {
    auto& q = labels_of(self_);
    const P* best = nullptr;
    for (const P& lp : q) {
      if (!lp.legit()) continue;
      if (best == nullptr || P::total_less(*best, lp)) best = &lp;
    }
    if (best != nullptr) {
      assign(max_[self_], *best);
      return;
    }
    mint_fresh();
  }

  void mint_fresh() {
    auto& q = labels_of(self_);
    P fresh = create_(q);
    ++stats_.created;
    ++version_;
    // ssr-lint: allow(hot-path-alloc) minting is the rare event the store
    // exists to make rare (StoreStats::created counts it); the steady-state
    // maintenance path never reaches here.
    q.push_front(fresh);
    enforce_capacity(self_, q);
    max_[self_] = std::move(fresh);
  }

  NodeId self_;
  StoreConfig cfg_;
  CreateFn create_;
  IdSet members_;
  std::map<NodeId, P> max_;              // max[] / maxC[]
  std::map<NodeId, std::deque<P>> stored_;  // storedLabels[] / storedCnts[]
  std::uint64_t version_ = 0;
  std::map<NodeId, ReceiptMemo> receipts_;  // members' last receipts
  StoreStats stats_;
};

}  // namespace ssr::label
