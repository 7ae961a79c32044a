#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "scenario/scenario.hpp"

namespace ssr::scenario {

/// Plain-text ScenarioSpec format, the interchange behind fuzzing:
/// counterexamples are shrunk to a minimal spec and saved with save_spec;
/// `scenario_runner --spec FILE` (and the CI artifact flow) reproduce them
/// with load_spec. The rendering is canonical — field order fixed, every
/// field always present — so two equal specs serialize byte-identically
/// (the fuzzer determinism test compares renderings directly).
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
///   phase <rest of line>
///   action <kind> targets=1,2 group=3,4 n=<u64> duration=<u64> reg=<rest>
///   ...
///   end
void save_spec(std::ostream& os, const ScenarioSpec& spec);

/// Convenience: the canonical rendering as a string (what save_spec emits).
std::string spec_to_string(const ScenarioSpec& spec);

/// The largest `n=` that load_spec accepts where `n` counts actions to
/// take: garbage packets per channel (garbage_channels) and increments per
/// node (increment_burst). Each costs work linear in `n`; the library and
/// the fuzzer ask for at most 3. Where `n` is a value rather than a count
/// (plant_exhausted_counter, shmem_write's salt) it stays unbounded.
inline constexpr std::uint64_t kMaxSpecActionCount = 1000;

/// Parses the save_spec format; nullopt on any malformed or unknown line,
/// on an action count above kMaxSpecActionCount, and on a spec naming a
/// node it does not have or minting more than N (spec_references_valid).
std::optional<ScenarioSpec> load_spec(std::istream& is);

/// File-path convenience wrappers. save returns false when the file cannot
/// be opened; load returns nullopt on open or parse failure.
bool save_spec_file(const std::string& path, const ScenarioSpec& spec);
std::optional<ScenarioSpec> load_spec_file(const std::string& path);

/// Parses an ActionKind by its to_string name; nullopt for unknown names.
std::optional<ActionKind> action_kind_from_string(const std::string& name);

}  // namespace ssr::scenario
