#include "scenario/spec_io.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace ssr::scenario {
namespace {

constexpr const char* kMagic = "ssrspec v1";
/// Fleets one spec may declare: each is a whole protocol stack (a process
/// fleet under the process backend), so a file cannot ask for millions.
constexpr std::uint64_t kMaxShards = 64;

/// Every ActionKind, for the name -> kind reverse map. Kept in enum order;
/// a kind missing here would fail the spec_io round-trip test.
constexpr ActionKind kAllKinds[] = {
    ActionKind::kAddNodes,       ActionKind::kCrash,
    ActionKind::kReboot,         ActionKind::kSplitNetwork,
    ActionKind::kHealNetwork,    ActionKind::kCorruptRecsa,
    ActionKind::kCorruptFd,      ActionKind::kSplitConfigState,
    ActionKind::kGarbageChannels, ActionKind::kPlantExhaustedCounter,
    ActionKind::kPlantRecmaFlags, ActionKind::kIncrementBurst,
    ActionKind::kShmemWrite,     ActionKind::kShmemRead,
    ActionKind::kRunFor,         ActionKind::kAwaitConverged,
    ActionKind::kAwaitVsStable,  ActionKind::kAwaitParticipants,
    ActionKind::kAwaitConfigEqualsAlive, ActionKind::kMarkStable,
    ActionKind::kCrashAll,       ActionKind::kAwaitQuiescent,
    ActionKind::kPauseNodes,     ActionKind::kResumeNodes,
    ActionKind::kKeyedIncrements, ActionKind::kGrowMap,
};

void write_ids(std::ostream& os, const IdSet& ids) {
  bool first = true;
  for (NodeId id : ids) {
    if (!first) os << ',';
    os << id;
    first = false;
  }
}

bool parse_ids(const std::string& s, IdSet& out) {
  out.clear();
  if (s.empty()) return true;
  std::size_t pos = 0;
  while (pos < s.size()) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str() + pos, &end, 10);
    if (end == s.c_str() + pos) return false;
    out.insert(static_cast<NodeId>(v));
    pos = static_cast<std::size_t>(end - s.c_str());
    if (pos < s.size()) {
      if (s[pos] != ',') return false;
      ++pos;
    }
  }
  return true;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return *end == '\0';
}

bool parse_bool(const std::string& s, bool& out) {
  if (s == "0") {
    out = false;
    return true;
  }
  if (s == "1") {
    out = true;
    return true;
  }
  return false;
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
  for (ActionKind k : kAllKinds) {
    if (name == to_string(k)) return k;
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
  // Multi-fleet fields only when set, so one-fleet specs keep their bytes.
  if (spec.shards != 1) os << "shards " << spec.shards << '\n';
  if (spec.map_shards != 0) os << "map_shards " << spec.map_shards << '\n';
  for (const Phase& phase : spec.phases) {
    os << "phase " << phase.name << '\n';
    for (const Action& a : phase.actions) {
      os << "action " << to_string(a.kind) << " targets=";
      write_ids(os, a.targets);
      os << " group=";
      write_ids(os, a.group_b);
      os << " n=" << a.n << " duration=" << a.duration;
      if (a.shard != 0) os << " shard=" << a.shard;
      os << " reg=" << a.reg << '\n';
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
      if (!parse_u64(rest, v)) return std::nullopt;
      spec.initial_nodes = static_cast<std::size_t>(v);
    } else if (key == "vs") {
      if (!parse_bool(rest, spec.enable_vs)) return std::nullopt;
    } else if (key == "aggressive") {
      if (!parse_bool(rest, spec.aggressive_policy)) return std::nullopt;
    } else if (key == "adopt_joiners") {
      if (!parse_bool(rest, spec.adopt_joiners)) return std::nullopt;
    } else if (key == "corrupt_prob") {
      char* end = nullptr;
      spec.corrupt_probability = std::strtod(rest.c_str(), &end);
      if (end == rest.c_str() || *end != '\0') return std::nullopt;
    } else if (key == "exhaust_bound") {
      if (!parse_u64(rest, spec.exhaust_bound)) return std::nullopt;
    } else if (key == "adversarial") {
      if (!parse_bool(rest, spec.adversarial)) return std::nullopt;
    } else if (key == "shards" || key == "map_shards") {
      std::uint64_t v = 0;
      if (!parse_u64(rest, v) || v > kMaxShards) return std::nullopt;
      (key == "shards" ? spec.shards : spec.map_shards) =
          static_cast<std::uint32_t>(v);
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
      if (!take_field(rest, "n", field) || !parse_u64(field, a.n)) {
        return std::nullopt;
      }
      std::uint64_t dur = 0;
      if (!take_field(rest, "duration", field) || !parse_u64(field, dur)) {
        return std::nullopt;
      }
      a.duration = static_cast<SimTime>(dur);
      if (take_field(rest, "shard", field)) {
        std::uint64_t shard = 0;
        if (!parse_u64(field, shard) || shard >= kMaxShards) {
          return std::nullopt;
        }
        a.shard = static_cast<std::uint32_t>(shard);
      }
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
  if (!ended || spec.name.empty() || spec.initial_nodes == 0) {
    return std::nullopt;
  }
  // Spec files are outside input: every fleet an action, the initial map
  // or a grow_map names must exist.
  if (spec.shards == 0 || spec.map_shards > spec.shards) return std::nullopt;
  std::uint32_t map_width = spec.initial_map_shards();
  for (const Phase& phase : spec.phases) {
    for (const Action& a : phase.actions) {
      if (a.shard >= spec.shards) return std::nullopt;
      if (a.kind == ActionKind::kGrowMap && ++map_width > spec.shards) {
        return std::nullopt;
      }
    }
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
