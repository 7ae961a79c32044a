#include "scenario/spec_io.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/parse.hpp"

namespace ssr::scenario {
namespace {

constexpr const char* kMagic = "ssrspec v1";

void write_ids(std::ostream& os, const IdSet& ids) {
  bool first = true;
  for (NodeId id : ids) {
    if (!first) os << ',';
    os << id;
    first = false;
  }
}

/// Comma-separated ids, each a strict decimal that fits NodeId; the empty
/// string is the empty set.
bool parse_ids(const std::string& s, IdSet& out) {
  out.clear();
  if (s.empty()) return true;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = s.find(',', pos);
    NodeId id = 0;
    if (!parse_uint(s.substr(pos, comma - pos), id)) return false;
    out.insert(id);
    if (comma == std::string::npos) return true;
    pos = comma + 1;
  }
}

/// Splits "key rest-of-line"; returns false on a blank line.
bool split_key(const std::string& line, std::string& key, std::string& rest) {
  const auto sp = line.find(' ');
  if (sp == std::string::npos) {
    key = line;
    rest.clear();
  } else {
    key = line.substr(0, sp);
    rest = line.substr(sp + 1);
  }
  return !key.empty();
}

/// Pulls "name=" ... " name2=" fields off an action line. `reg=` must come
/// last (its value runs to the end of the line, so registers may contain
/// spaces — everything else is a single token).
bool take_field(std::string& rest, const char* name, std::string& value) {
  const std::string tag = std::string(name) + "=";
  if (rest.rfind(tag, 0) != 0) return false;
  rest.erase(0, tag.size());
  const auto sp = rest.find(' ');
  if (sp == std::string::npos) {
    value = rest;
    rest.clear();
  } else {
    value = rest.substr(0, sp);
    rest.erase(0, sp + 1);
  }
  return true;
}

}  // namespace

std::optional<ActionKind> action_kind_from_string(const std::string& name) {
  // The kinds are numbered densely, kAddNodes through kResumeNodes.
  for (auto k = static_cast<int>(ActionKind::kAddNodes);
       k <= static_cast<int>(ActionKind::kResumeNodes); ++k) {
    if (name == to_string(static_cast<ActionKind>(k))) {
      return static_cast<ActionKind>(k);
    }
  }
  return std::nullopt;
}

void save_spec(std::ostream& os, const ScenarioSpec& spec) {
  os << kMagic << '\n';
  os << "name " << spec.name << '\n';
  os << "description " << spec.description << '\n';
  os << "nodes " << spec.initial_nodes << '\n';
  os << "vs " << (spec.enable_vs ? 1 : 0) << '\n';
  os << "aggressive " << (spec.aggressive_policy ? 1 : 0) << '\n';
  os << "adopt_joiners " << (spec.adopt_joiners ? 1 : 0) << '\n';
  char prob[64];
  std::snprintf(prob, sizeof prob, "%.17g", spec.corrupt_probability);
  os << "corrupt_prob " << prob << '\n';
  os << "exhaust_bound " << spec.exhaust_bound << '\n';
  os << "adversarial " << (spec.adversarial ? 1 : 0) << '\n';
  for (const Phase& phase : spec.phases) {
    os << "phase " << phase.name << '\n';
    for (const Action& a : phase.actions) {
      os << "action " << to_string(a.kind) << " targets=";
      write_ids(os, a.targets);
      os << " group=";
      write_ids(os, a.group_b);
      os << " n=" << a.n << " duration=" << a.duration << " reg=" << a.reg
         << '\n';
    }
  }
  os << "end\n";
}

std::string spec_to_string(const ScenarioSpec& spec) {
  std::ostringstream os;
  save_spec(os, spec);
  return os.str();
}

std::optional<ScenarioSpec> load_spec(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kMagic) return std::nullopt;
  ScenarioSpec spec;
  spec.initial_nodes = 0;
  Phase* phase = nullptr;
  bool ended = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (ended) return std::nullopt;  // trailing garbage after "end"
    std::string key, rest;
    if (!split_key(line, key, rest)) return std::nullopt;
    if (key == "name") {
      spec.name = rest;
    } else if (key == "description") {
      spec.description = rest;
    } else if (key == "nodes") {
      std::uint64_t v = 0;
      if (!parse_uint(rest, v)) return std::nullopt;
      spec.initial_nodes = static_cast<std::size_t>(v);
    } else if (key == "vs") {
      if (!parse_flag(rest, spec.enable_vs)) return std::nullopt;
    } else if (key == "aggressive") {
      if (!parse_flag(rest, spec.aggressive_policy)) return std::nullopt;
    } else if (key == "adopt_joiners") {
      if (!parse_flag(rest, spec.adopt_joiners)) return std::nullopt;
    } else if (key == "corrupt_prob") {
      char* end = nullptr;
      const double p = std::strtod(rest.c_str(), &end);
      if (end == rest.c_str() || *end != '\0') return std::nullopt;
      if (!(p >= 0.0 && p <= 1.0)) return std::nullopt;  // also nan
      spec.corrupt_probability = p;
    } else if (key == "exhaust_bound") {
      if (!parse_uint(rest, spec.exhaust_bound)) return std::nullopt;
    } else if (key == "adversarial") {
      if (!parse_flag(rest, spec.adversarial)) return std::nullopt;
    } else if (key == "phase") {
      spec.phases.push_back(Phase{rest, {}});
      phase = &spec.phases.back();
    } else if (key == "action") {
      if (phase == nullptr) return std::nullopt;
      std::string kind_name, field;
      if (!split_key(rest, kind_name, rest)) return std::nullopt;
      auto kind = action_kind_from_string(kind_name);
      if (!kind) return std::nullopt;
      Action a;
      a.kind = *kind;
      if (!take_field(rest, "targets", field) ||
          !parse_ids(field, a.targets)) {
        return std::nullopt;
      }
      if (!take_field(rest, "group", field) || !parse_ids(field, a.group_b)) {
        return std::nullopt;
      }
      if (!take_field(rest, "n", field) || !parse_uint(field, a.n)) {
        return std::nullopt;
      }
      const bool n_counts = a.kind == ActionKind::kGarbageChannels ||
                            a.kind == ActionKind::kIncrementBurst;
      if (n_counts && a.n > kMaxSpecActionCount) return std::nullopt;
      std::uint64_t dur = 0;
      if (!take_field(rest, "duration", field) || !parse_uint(field, dur)) {
        return std::nullopt;
      }
      a.duration = static_cast<SimTime>(dur);
      // reg= runs to the end of the line.
      const std::string tag = "reg=";
      if (rest.rfind(tag, 0) != 0) return std::nullopt;
      a.reg = rest.substr(tag.size());
      phase->actions.push_back(std::move(a));
    } else if (key == "end") {
      ended = true;
    } else {
      return std::nullopt;
    }
  }
  // Spec files are outside input: every node they name must exist, and
  // they may mint no more nodes than the paper's N.
  if (!ended || spec.name.empty() || !spec_references_valid(spec)) {
    return std::nullopt;
  }
  return spec;
}

bool save_spec_file(const std::string& path, const ScenarioSpec& spec) {
  std::ofstream out(path);
  if (!out) return false;
  save_spec(out, spec);
  return static_cast<bool>(out);
}

std::optional<ScenarioSpec> load_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return load_spec(in);
}

}  // namespace ssr::scenario
