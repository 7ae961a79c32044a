#pragma once

#include <optional>
#include <vector>

#include "scenario/scenario.hpp"

namespace ssr::scenario {

/// The built-in scenario library: one named spec per execution shape the
/// paper's theorems talk about. `tools/scenario_runner --list` surfaces
/// these; tests reference them by name.
const std::vector<ScenarioSpec>& library();

/// Looks a scenario up by name.
std::optional<ScenarioSpec> find_scenario(const std::string& name);

}  // namespace ssr::scenario
