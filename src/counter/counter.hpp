#pragma once

#include <optional>
#include <string>

#include "label/label.hpp"

namespace ssr::counter {

using label::Label;

/// Practically-infinite counter ⟨lbl, seqn, wid⟩ (paper §4.2): an epoch
/// label from the labeling scheme, a bounded sequence number, and the
/// identifier of the sequence number's writer. Strictly ordered whenever
/// the labels are comparable:
///   ct1 ≺ct ct2 ⇔ lbl1 ≺lb lbl2 ∨ (lbl1 = lbl2 ∧ seqn1 < seqn2)
///                ∨ (lbl1 = lbl2 ∧ seqn1 = seqn2 ∧ wid1 < wid2).
struct Counter {
  Label lbl;
  std::uint64_t seqn = 0;
  NodeId wid = kNoNode;

  friend bool operator==(const Counter&, const Counter&) = default;

  /// ≺ct with the deterministic total extension of ≺lb on labels.
  static bool ct_less(const Counter& a, const Counter& b);

  void encode(wire::Writer& w) const;
  static std::optional<Counter> decode(wire::Reader& r);

  std::string to_string() const;
};

/// ⟨mct, cct⟩ — counter pair; `cct` non-null cancels `mct` (stale epoch or
/// exhausted sequence number). Satisfies the PairStore interface so the
/// counter structures reuse Algorithm 4.2's receipt action (paper:
/// "counterReceiptAction … is essentially the same").
struct CounterPair {
  std::optional<Counter> mct;
  std::optional<Counter> cct;

  static CounterPair null() { return CounterPair{}; }
  static CounterPair of(Counter c) {
    return CounterPair{std::move(c), std::nullopt};
  }

  bool has_main() const { return mct.has_value(); }
  bool legit() const { return mct.has_value() && !cct.has_value(); }
  NodeId creator() const { return mct ? mct->lbl.creator : kNoNode; }
  const Label& main() const { return mct->lbl; }
  /// Pairs match by *label*: only the greatest counter per label is kept.
  bool same_main(const CounterPair& o) const {
    return mct.has_value() && o.mct.has_value() && mct->lbl == o.mct->lbl;
  }
  void cancel_with(const Label& evidence) {
    cct = Counter{evidence, 0, creator()};
  }
  /// Exhaustion: cancel with the counter itself (cancelExhausted).
  void cancel_exhausted() { cct = mct; }
  /// A counter whose *increment* would reach the bound is already
  /// exhausted, so exhausted sequence numbers are never handed out.
  bool exhausted(std::uint64_t bound) const {
    return mct.has_value() && mct->seqn + 1 >= bound;
  }

  /// Same label: prefer the cancelled copy, else the greater (seqn, wid).
  CounterPair merged_with(const CounterPair& o) const {
    if (!legit()) return *this;
    if (!o.legit()) return o;
    return Counter::ct_less(*mct, *o.mct) ? o : *this;
  }
  /// In-place merged_with: `*this = merged_with(o)` without the temporary,
  /// so a no-op merge (the steady state) performs no allocation. True when
  /// the pair changed.
  bool merge_from(const CounterPair& o) {
    if (!legit()) return false;
    if (o.legit() && !Counter::ct_less(*mct, *o.mct)) return false;
    if (*this == o) return false;
    *this = o;
    return true;
  }

  bool has_foreign_creator(const IdSet& members) const {
    if (mct && !members.contains(mct->lbl.creator)) return true;
    if (cct && !members.contains(cct->lbl.creator)) return true;
    return false;
  }

  static bool total_less(const CounterPair& a, const CounterPair& b) {
    if (!a.has_main()) return b.has_main();
    if (!b.has_main()) return false;
    return Counter::ct_less(*a.mct, *b.mct);
  }

  friend bool operator==(const CounterPair&, const CounterPair&) = default;

  void encode(wire::Writer& w) const;
  static CounterPair decode(wire::Reader& r);

  std::string to_string() const;
};

}  // namespace ssr::counter
