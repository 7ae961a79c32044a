#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "scenario/scenario.hpp"

namespace ssr::scenario {

/// Plain-text ScenarioSpec format, the interchange behind fuzzing:
/// counterexamples are shrunk to a minimal spec and saved with save_spec;
/// `scenario_runner --spec FILE` (and the CI artifact flow) reproduce them
/// with load_spec. The rendering is canonical — field order fixed, every
/// one-fleet field always present, the multi-fleet ones only when set — so
/// two equal specs serialize byte-identically (the fuzzer determinism test
/// compares renderings directly).
///
///   ssrspec v1
///   name <token>
///   description <rest of line>
///   nodes <N>
///   vs <0|1>
///   aggressive <0|1>
///   adopt_joiners <0|1>
///   corrupt_prob <%.17g double>
///   exhaust_bound <u64>
///   adversarial <0|1>
///   shards <N>                 only when != 1
///   map_shards <N>             only when != 0
///   phase <rest of line>
///   action <kind> targets=1,2 group=3,4 n=<u64> duration=<u64> [shard=<s>]
///          reg=<rest>          (one line; shard= only when != 0)
///   ...
///   end
void save_spec(std::ostream& os, const ScenarioSpec& spec);

/// Convenience: the canonical rendering as a string (what save_spec emits).
std::string spec_to_string(const ScenarioSpec& spec);

/// Parses the save_spec format; nullopt on any malformed or unknown line,
/// and on a spec naming a fleet it does not have (shard >= shards,
/// map_shards > shards, or more grow_maps than fleets beyond the map).
std::optional<ScenarioSpec> load_spec(std::istream& is);

/// File-path convenience wrappers. save returns false when the file cannot
/// be opened; load returns nullopt on open or parse failure.
bool save_spec_file(const std::string& path, const ScenarioSpec& spec);
std::optional<ScenarioSpec> load_spec_file(const std::string& path);

/// Parses an ActionKind by its to_string name; nullopt for unknown names.
std::optional<ActionKind> action_kind_from_string(const std::string& name);

}  // namespace ssr::scenario
