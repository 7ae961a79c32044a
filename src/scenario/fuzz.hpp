#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/backend.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"

namespace ssr::scenario {

struct FuzzOptions {
  /// Master seed: case `i` (spec AND run seed) is a pure function of
  /// (seed, i), so a fuzz campaign is reproducible from two numbers.
  std::uint64_t seed = 1;
  /// Number of generated (spec, seed) cases per run() call.
  std::size_t cases = 50;
  /// SweepRunner workers executing the case matrix. Results (and any
  /// counterexamples) are byte-identical at any jobs count.
  std::size_t jobs = 1;
  /// Allow generated specs to enable the worst-case delivery scheduler.
  bool allow_adversarial = true;
  /// Re-execution budget for shrinking one counterexample.
  std::size_t max_shrink_runs = 250;
};

/// A failing fuzz case, shrunk to a (greedy) minimum that still fails with
/// the same signature.
struct Counterexample {
  ScenarioSpec spec;      ///< shrunk spec (save with spec_io for the repro)
  ScenarioSpec original;  ///< as generated, before shrinking
  std::uint64_t run_seed = 0;
  /// Failure class preserved through shrinking: "violation:<invariant>" or
  /// "failure:<action kind>".
  std::string signature;
  std::size_t shrink_runs = 0;  ///< re-executions the shrinker spent
  ScenarioResult result;        ///< result of the shrunk spec
};

struct FuzzReport {
  std::size_t cases_run = 0;
  std::size_t failures = 0;
  /// One per failing case, in submission order.
  std::vector<Counterexample> counterexamples;
  /// Every case result, in submission order (hashes feed the determinism
  /// property test).
  std::vector<ScenarioResult> results;
};

/// Adversarial ScenarioSpec fuzzer (the ROADMAP "coverage beyond the
/// library" item). generate() splices and perturbs library specs — fault
/// timing, churn order, partition shape, workload mix — inside a validity
/// model that keeps every generated execution within the paper's liveness
/// prerequisites (a configuration majority stays alive, partitions heal,
/// paused nodes resume, await budgets are generous), so a failing case is
/// evidence of a bug, not of an impossible demand. run() fans the case
/// matrix out on SweepRunner and greedily shrinks every failure to a
/// minimal repro.
class Fuzzer {
 public:
  explicit Fuzzer(FuzzOptions opt) : opt_(opt) {}

  /// Deterministic generation: the spec depends only on (opt.seed, index).
  ScenarioSpec generate(std::uint64_t index) const;
  /// The runner seed paired with case `index` (also (opt.seed, index)-pure).
  std::uint64_t run_seed(std::uint64_t index) const;

  /// Runs cases [0, opt.cases): generate, execute on a jobs-wide sweep,
  /// shrink every failure.
  FuzzReport run() { return run_range(0, opt_.cases); }
  /// Runs cases [first, first + count) — the batching hook behind the CLI
  /// wall-clock budget: each batch is deterministic by case index, so a
  /// budget cut changes how MANY cases run, never WHAT a case does.
  FuzzReport run_range(std::uint64_t first, std::size_t count);

  /// Failure class of a result: "" when passing, "violation:<invariant>"
  /// for invariant violations (strongest — checked first), otherwise
  /// "failure:<detail-prefix>" for missed awaits.
  static std::string failure_signature(const ScenarioResult& r);

  /// Greedy shrink to a local minimum: drop phases, drop actions, simplify
  /// parameters, clear stack options — adopting any reduction that still
  /// fails with `signature`, until no candidate applies or `max_runs`
  /// re-executions were spent. Candidates that would reference a node id
  /// the shrunk spec never creates are skipped (validity is re-checked per
  /// candidate, never assumed).
  static ScenarioSpec shrink(const ScenarioSpec& spec, std::uint64_t seed,
                             const std::string& signature,
                             std::size_t max_runs,
                             std::size_t* runs_used = nullptr);

 private:
  FuzzOptions opt_;
};

}  // namespace ssr::scenario
