#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"
#include "wire/wire.hpp"

namespace ssr::label {

/// Bounded epoch label of the labeling scheme (paper §4.1, ported from the
/// authors' static-membership algorithm [11]; Israeli–Li style).
///
/// A label is ⟨creator, sting, Antistings⟩ with a fixed-size antisting set
/// drawn from a bounded domain. Labels of different creators are totally
/// ordered by creator identifier; labels of the same creator obey the
/// cancellation order: a ≺lb b ⇔ a.sting ∈ b.antistings ∧ b.sting ∉
/// a.antistings — so same-creator labels can be *incomparable*, and a
/// processor aware of a set of its own labels can always create a greater
/// one (nextLabel()).
struct Label {
  NodeId creator = kNoNode;
  std::uint32_t sting = 0;
  std::vector<std::uint32_t> antistings;  // sorted, unique, size ≤ kAntistings

  /// Antisting set size: must be at least the own-queue capacity so that
  /// nextLabel() can dominate every stored label (see LabelAlgoConfig).
  static constexpr std::size_t kAntistings = 24;
  /// Bounded sting domain (finite ⇒ bounded label size).
  static constexpr std::uint32_t kStingDomain = 0x7FFFFFFF;

  bool contains_antisting(std::uint32_t s) const;

  friend bool operator==(const Label&, const Label&) = default;

  /// Same-creator cancellation order (see class comment). Asymmetric;
  /// returns false for incomparable pairs.
  static bool cancels(const Label& small, const Label& big);

  /// ≺lb, as the paper compares arbitrary labels: creator id first, then
  /// the cancellation order for equal creators.
  static bool lb_less(const Label& a, const Label& b);
  /// Total extension of ≺lb used for deterministic max-selection among
  /// transiently incomparable labels (the cancellation machinery removes
  /// the losers eventually).
  static bool total_less(const Label& a, const Label& b);

  /// Creates a label greater (under ≺lb) than every label in `known` with
  /// the same creator: antistings cover their stings, the fresh sting avoids
  /// all of their antistings.
  ///
  /// Candidates are read through pointers, so callers that already own the
  /// labels (the stores' mint paths) pass an arena-backed pointer scratch
  /// list instead of copying whole labels; callers with no known labels
  /// pass {}.
  static Label next_label(NodeId creator, std::span<const Label* const> known,
                          Rng& rng);

  void encode(wire::Writer& w) const;
  static std::optional<Label> decode(wire::Reader& r);

  std::string to_string() const;
};

/// ⟨ml, cl⟩ — a label and optionally the label that cancels it. `cl` null
/// means the label is legit (usable); a non-null `cl` is evidence that `ml`
/// is not maximal (cl ⊀lb ml).
struct LabelPair {
  std::optional<Label> ml;
  std::optional<Label> cl;

  static LabelPair null() { return LabelPair{}; }
  static LabelPair of(Label l) { return LabelPair{std::move(l), std::nullopt}; }

  bool has_main() const { return ml.has_value(); }
  bool legit() const { return ml.has_value() && !cl.has_value(); }
  NodeId creator() const { return ml ? ml->creator : kNoNode; }
  const Label& main() const { return *ml; }
  bool same_main(const LabelPair& o) const {
    return ml.has_value() && o.ml.has_value() && *ml == *o.ml;
  }
  /// Cancels this pair using `evidence` (a label that is not below ml).
  void cancel_with(const Label& evidence) { cl = evidence; }

  /// Duplicate resolution inside a queue: prefer the cancelled copy (it
  /// carries strictly more information).
  LabelPair merged_with(const LabelPair& o) const {
    return legit() ? o : *this;
  }
  /// In-place merged_with: `*this = merged_with(o)` without the temporary,
  /// so a no-op merge (the steady state) performs no allocation.
  void merge_from(const LabelPair& o) {
    if (legit()) *this = o;
  }

  /// cleanLP(): true if ml or cl was created by a non-member.
  bool has_foreign_creator(const IdSet& members) const {
    if (ml && !members.contains(ml->creator)) return true;
    if (cl && !members.contains(cl->creator)) return true;
    return false;
  }

  /// Deterministic total order on the main label (for max-selection).
  static bool total_less(const LabelPair& a, const LabelPair& b) {
    if (!a.has_main()) return b.has_main();
    if (!b.has_main()) return false;
    return Label::total_less(*a.ml, *b.ml);
  }

  friend bool operator==(const LabelPair&, const LabelPair&) = default;

  void encode(wire::Writer& w) const;
  static LabelPair decode(wire::Reader& r);

  std::string to_string() const;
};

}  // namespace ssr::label
