#pragma once

#include <compare>
#include <iosfwd>
#include <string>

#include "util/id_set.hpp"
#include "wire/wire.hpp"

namespace ssr::reconf {

/// The three-valued `config` field of Algorithm 3.1:
///  * `]`  (kNonParticipant) — the holder is not a participant;
///  * `⊥`  (kBottom)         — a configuration reset is in progress;
///  * a processor set         — the (quorum) configuration.
///
/// An *empty* set is representable but is type-2 stale information
/// (Definition 3.1) and triggers a reset.
class ConfigValue {
 public:
  enum class Tag : std::uint8_t { kNonParticipant = 0, kBottom = 1, kSet = 2 };

  ConfigValue() = default;  // non-participant (the boot value, line 31)

  static ConfigValue non_participant() { return ConfigValue(); }
  static ConfigValue bottom();
  static ConfigValue set(IdSet ids);

  bool is_non_participant() const { return tag_ == Tag::kNonParticipant; }
  bool is_bottom() const { return tag_ == Tag::kBottom; }
  bool is_set() const { return tag_ == Tag::kSet; }
  /// A usable quorum configuration: a non-empty processor set.
  bool is_proper() const { return tag_ == Tag::kSet && !ids_.empty(); }

  /// Only valid when is_set().
  const IdSet& ids() const;

  Tag tag() const { return tag_; }

  friend bool operator==(const ConfigValue&, const ConfigValue&) = default;
  /// Deterministic total order (tag, then set) for the `choose` rule.
  friend std::strong_ordering operator<=>(const ConfigValue&,
                                          const ConfigValue&) = default;

  void encode(wire::Writer& w) const;
  static ConfigValue decode(wire::Reader& r);

  std::string to_string() const;

 private:
  Tag tag_ = Tag::kNonParticipant;
  IdSet ids_;
};

/// Prints to_string(): ], ⊥ or the set, e.g. {1,2,3}.
std::ostream& operator<<(std::ostream& os, const ConfigValue& v);

}  // namespace ssr::reconf
