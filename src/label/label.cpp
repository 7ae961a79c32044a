#include "label/label.hpp"

#include <algorithm>

namespace ssr::label {

bool Label::contains_antisting(std::uint32_t s) const {
  return std::binary_search(antistings.begin(), antistings.end(), s);
}

bool Label::cancels(const Label& small, const Label& big) {
  return big.contains_antisting(small.sting) &&
         !small.contains_antisting(big.sting);
}

bool Label::lb_less(const Label& a, const Label& b) {
  if (a.creator != b.creator) return a.creator < b.creator;
  return cancels(a, b);
}

bool Label::total_less(const Label& a, const Label& b) {
  if (a.creator != b.creator) return a.creator < b.creator;
  if (cancels(a, b)) return true;
  if (cancels(b, a)) return false;
  // Incomparable: deterministic tie-break (transient only).
  if (a.sting != b.sting) return a.sting < b.sting;
  return a.antistings < b.antistings;
}

Label Label::next_label(NodeId creator, std::span<const Label* const> known,
                        Rng& rng) {
  Label next;
  next.creator = creator;
  // The fresh label escapes to the caller, so its antisting storage is one
  // deliberate allocation — reserved up-front to its bound so push_back
  // below never reallocates.
  // ssr-lint: allow(hot-path-alloc) the minted label escapes; single
  // reserve to the kAntistings bound.
  next.antistings.reserve(kAntistings);
  // Antistings: the stings of the most recent known labels (front of the
  // queue first), capped at kAntistings.
  for (const Label* l : known) {
    if (next.antistings.size() >= kAntistings) break;
    if (l->creator != creator) continue;
    // ssr-lint: allow(hot-path-alloc) within the reserve above.
    next.antistings.push_back(l->sting);
  }
  std::sort(next.antistings.begin(), next.antistings.end());
  next.antistings.erase(
      std::unique(next.antistings.begin(), next.antistings.end()),
      next.antistings.end());
  // Fresh sting: outside every known antisting set and our own.
  auto forbidden = [&](std::uint32_t s) {
    if (std::binary_search(next.antistings.begin(), next.antistings.end(), s))
      return true;
    for (const Label* l : known) {
      if (l->creator == creator && l->contains_antisting(s)) return true;
    }
    return false;
  };
  std::uint32_t sting =
      static_cast<std::uint32_t>(rng.next_below(kStingDomain));
  // The forbidden set is tiny compared to the domain; a handful of draws
  // suffices, with a deterministic linear fallback for completeness.
  for (int attempt = 0; attempt < 64 && forbidden(sting); ++attempt) {
    sting = static_cast<std::uint32_t>(rng.next_below(kStingDomain));
  }
  while (forbidden(sting)) sting = (sting + 1) % kStingDomain;
  next.sting = sting;
  return next;
}

void Label::encode(wire::Writer& w) const {
  w.node_id(creator);
  w.u32(sting);
  w.u16(static_cast<std::uint16_t>(antistings.size()));
  for (std::uint32_t a : antistings) w.u32(a);
}

std::optional<Label> Label::decode(wire::Reader& r) {
  Label l;
  l.creator = r.node_id();
  l.sting = r.u32() % kStingDomain;
  const std::uint16_t n = r.u16();
  if (n > kAntistings) return std::nullopt;  // malformed / corrupted
  l.antistings.reserve(n);
  // ssr-lint: allow(hot-path-alloc) within the exact reserve above; the
  // decoded label escapes to the caller.
  for (std::uint16_t i = 0; i < n; ++i) l.antistings.push_back(r.u32());
  std::sort(l.antistings.begin(), l.antistings.end());
  l.antistings.erase(std::unique(l.antistings.begin(), l.antistings.end()),
                     l.antistings.end());
  return l;
}

std::string Label::to_string() const {
  return "L(" + std::to_string(creator) + "," + std::to_string(sting) + ",#" +
         std::to_string(antistings.size()) + ")";
}

void LabelPair::encode(wire::Writer& w) const {
  w.boolean(ml.has_value());
  if (ml) ml->encode(w);
  w.boolean(cl.has_value());
  if (cl) cl->encode(w);
}

LabelPair LabelPair::decode(wire::Reader& r) {
  LabelPair p;
  if (r.boolean()) p.ml = Label::decode(r);
  if (r.boolean()) p.cl = Label::decode(r);
  return p;
}

std::string LabelPair::to_string() const {
  return "<" + (ml ? ml->to_string() : "⊥") + "," +
         (cl ? cl->to_string() : "⊥") + ">";
}

}  // namespace ssr::label
