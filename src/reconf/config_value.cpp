#include "reconf/config_value.hpp"

#include <ostream>

#include "util/assert.hpp"

namespace ssr::reconf {

ConfigValue ConfigValue::bottom() {
  ConfigValue v;
  v.tag_ = Tag::kBottom;
  return v;
}

ConfigValue ConfigValue::set(IdSet ids) {
  ConfigValue v;
  v.tag_ = Tag::kSet;
  v.ids_ = std::move(ids);
  return v;
}

const IdSet& ConfigValue::ids() const {
  SSR_ASSERT(is_set(), "ids() requires a set-valued config");
  return ids_;
}

void ConfigValue::encode(wire::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(tag_));
  if (tag_ == Tag::kSet) w.id_set(ids_);
}

ConfigValue ConfigValue::decode(wire::Reader& r) {
  const std::uint8_t tag = r.u8();
  ConfigValue v;
  switch (tag) {
    case 0:
      return non_participant();
    case 1:
      return bottom();
    case 2:
      return set(r.id_set());
    default:
      // Corrupted tag: decode as a reset marker — the safest interpretation
      // for a self-stabilizing consumer (it triggers recovery, never silent
      // adoption of garbage).
      return bottom();
  }
}

std::string ConfigValue::to_string() const {
  switch (tag_) {
    case Tag::kNonParticipant:
      return "]";
    case Tag::kBottom:
      return "⊥";
    case Tag::kSet:
      return ids_.to_string();
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const ConfigValue& v) {
  return os << v.to_string();
}

}  // namespace ssr::reconf
