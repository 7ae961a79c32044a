#include "scenario/fuzz.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "scenario/library.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"
#include "util/assert.hpp"

namespace ssr::scenario {
namespace {

using A = Action;

/// splitmix64 gamma: seeds `opt.seed + k*gamma` walk the splitmix stream,
/// giving per-index generators that are independent of each other and of
/// the run seeds (which use a different offset parity below).
constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

/// Generator-side population model. The fuzzer only emits an action after
/// checking it here, which is what keeps generated executions inside the
/// paper's liveness prerequisites: a configuration majority stays alive,
/// partitions heal before any await, paused nodes resume.
struct Model {
  std::vector<NodeId> alive;  // sorted, invariant of every mutator below
  IdSet config;               // believed config (alive set at last await)
  NodeId next_id = 1;

  static Model initial(std::size_t n) {
    Model m;
    for (std::size_t i = 0; i < n; ++i) m.alive.push_back(m.next_id++);
    for (NodeId id : m.alive) m.config.insert(id);
    return m;
  }

  NodeId pick(Rng& rng) const {
    return alive[static_cast<std::size_t>(rng.next_below(alive.size()))];
  }

  /// A subset of 1..k alive nodes (deterministic given the rng stream).
  IdSet pick_subset(Rng& rng, std::size_t max_count) const {
    const std::size_t count =
        1 + static_cast<std::size_t>(rng.next_below(
                std::min(max_count, alive.size())));
    IdSet out;
    while (out.size() < count) out.insert(pick(rng));
    return out;
  }

  void add(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) alive.push_back(next_id++);
  }

  void kill(NodeId id) {
    alive.erase(std::remove(alive.begin(), alive.end(), id), alive.end());
  }

  /// Would the believed config keep an alive majority if `victim` died?
  bool may_crash(NodeId victim) const {
    if (alive.size() <= 3) return false;
    std::size_t survivors_in_config = 0;
    for (NodeId id : alive) {
      if (id != victim && config.contains(id)) ++survivors_in_config;
    }
    return 2 * survivors_in_config > config.size();
  }

  void settle_config() {
    config = IdSet::from_vector(alive);
  }
};

/// Appends a partition episode: split into two non-empty halves, run, heal.
/// Always emitted as a matched triple so no generated spec ever awaits
/// convergence across a live partition.
void emit_partition(Rng& rng, const Model& m, std::vector<Action>& out) {
  if (m.alive.size() < 2) return;
  IdSet a, b;
  for (NodeId id : m.alive) {
    (rng.chance(0.5) ? a : b).insert(id);
  }
  if (a.empty()) {
    const NodeId moved = *b.begin();
    b.erase(moved);
    a.insert(moved);
  } else if (b.empty()) {
    const NodeId moved = *a.begin();
    a.erase(moved);
    b.insert(moved);
  }
  out.push_back(A::split_network(a, b));
  out.push_back(A::run_for((20 + rng.next_below(100)) * kSec));
  out.push_back(A::heal_network());
}

/// Appends a pause episode (freeze, run, resume) — again a matched triple.
void emit_pause(Rng& rng, const Model& m, std::vector<Action>& out) {
  if (m.alive.size() < 3) return;
  const IdSet frozen = {m.pick(rng)};
  out.push_back(A::pause_nodes(frozen));
  out.push_back(A::run_for((20 + rng.next_below(80)) * kSec));
  out.push_back(A::resume_nodes(frozen));
}

/// Splices fault actions out of a random library spec, retargeted onto the
/// model's alive set. Only state-corruption kinds survive the splice: churn
/// and await kinds would invalidate the model or demand the donor's timing.
void emit_splice(Rng& rng, const Model& m, std::vector<Action>& out) {
  const std::vector<ScenarioSpec>& lib = library();
  if (lib.empty()) return;
  const ScenarioSpec& donor =
      lib[static_cast<std::size_t>(rng.next_below(lib.size()))];
  for (const Phase& phase : donor.phases) {
    for (const Action& a : phase.actions) {
      switch (a.kind) {
        case ActionKind::kCorruptRecsa:
        case ActionKind::kCorruptFd:
        case ActionKind::kPlantRecmaFlags: {
          Action copy = a;
          IdSet retargeted;
          for (std::size_t i = 0; i < copy.targets.size(); ++i) {
            retargeted.insert(m.pick(rng));
          }
          copy.targets = retargeted;
          out.push_back(std::move(copy));
          break;
        }
        case ActionKind::kGarbageChannels:
          out.push_back(a);
          break;
        default:
          break;  // churn/await/workload kinds are not spliceable
      }
      if (out.size() > 24) return;  // keep spliced phases bounded
    }
  }
}

/// One random mid-run action (or matched episode), validity-checked against
/// the model. Falls back to run_for when the drawn kind is not allowed in
/// the current model state, so the generator never stalls.
void emit_action(Rng& rng, Model& m, std::vector<Action>& out, bool& churned) {
  const std::uint64_t roll = rng.next_below(100);
  if (roll < 12) {  // grow the cohort
    if (m.next_id <= 10) {
      const std::uint64_t n = 1 + rng.next_below(2);
      out.push_back(A::add_nodes(n));
      m.add(n);
      churned = true;
      return;
    }
  } else if (roll < 24) {  // crash-stop
    const NodeId victim = m.pick(rng);
    if (m.may_crash(victim)) {
      out.push_back(A::crash({victim}));
      m.kill(victim);
      churned = true;
      return;
    }
  } else if (roll < 34) {  // reboot (crash + fresh replacement)
    const NodeId victim = m.pick(rng);
    if (m.may_crash(victim) && m.next_id <= 12) {
      out.push_back(A::reboot({victim}));
      m.kill(victim);
      m.add(1);
      churned = true;
      return;
    }
  } else if (roll < 46) {  // partition episode
    emit_partition(rng, m, out);
    return;
  } else if (roll < 56) {  // pause episode
    emit_pause(rng, m, out);
    return;
  } else if (roll < 64) {  // arbitrary recSA state
    out.push_back(A::corrupt_recsa(rng.chance(0.4) ? IdSet{}
                                                   : m.pick_subset(rng, 3)));
    return;
  } else if (roll < 70) {  // scrambled failure detector
    out.push_back(A::corrupt_fd(rng.chance(0.4) ? IdSet{}
                                                : m.pick_subset(rng, 3)));
    return;
  } else if (roll < 75) {  // stale channel content
    out.push_back(A::garbage_channels(1 + rng.next_below(3)));
    return;
  } else if (roll < 79) {  // planted config conflict (overlapping halves)
    if (m.alive.size() >= 3) {
      const std::size_t pivot =
          1 + static_cast<std::size_t>(rng.next_below(m.alive.size() - 2));
      IdSet a, b;
      for (std::size_t i = 0; i <= pivot; ++i) a.insert(m.alive[i]);
      for (std::size_t i = pivot; i < m.alive.size(); ++i) {
        b.insert(m.alive[i]);
      }
      out.push_back(A::split_config_state(a, b));
      return;
    }
  } else if (roll < 83) {  // stale recMA flags (Lemma 3.18 shape)
    out.push_back(A::plant_recma_flags(m.pick_subset(rng, 2),
                                       rng.chance(0.7), rng.chance(0.7)));
    return;
  } else if (roll < 87) {  // counter increments (the Theorem 4.6 workload)
    // Always explicit, small targets: each op carries a 12-attempt retry
    // budget in the runner, so an all-alive burst mid-storm can cost tens
    // of thousands of sim-seconds without finding anything new.
    out.push_back(A::increment_burst(1 + rng.next_below(2),
                                     m.pick_subset(rng, 2)));
    return;
  } else if (roll < 92) {  // register workload
    const char* const regs[] = {"x", "y", "z"};
    const std::string reg = regs[rng.next_below(3)];
    if (rng.chance(0.6)) {
      out.push_back(A::shmem_write({m.pick(rng)}, reg, rng.next_u64() % 997));
    } else {
      out.push_back(A::shmem_read({m.pick(rng)}, reg));
    }
    return;
  } else if (roll < 96) {  // spliced library faults
    emit_splice(rng, m, out);
    return;
  }
  out.push_back(A::run_for((5 + rng.next_below(55)) * kSec));
}

}  // namespace

ScenarioSpec Fuzzer::generate(std::uint64_t index) const {
  Rng rng(opt_.seed + (2 * index + 1) * kGamma);
  ScenarioSpec s;
  s.name = "fuzz-" + std::to_string(opt_.seed) + "-" + std::to_string(index);
  s.description = "generated by scenario::Fuzzer";
  s.initial_nodes = 3 + static_cast<std::size_t>(rng.next_below(5));
  s.enable_vs = rng.chance(0.5);
  s.aggressive_policy = rng.chance(0.3);
  s.adopt_joiners = rng.chance(0.4);
  if (rng.chance(0.25)) {
    // Wire corruption only (checksummed away); state corruption is injected
    // through explicit actions so every fault has a place in the trace.
    s.corrupt_probability = 0.01 * static_cast<double>(1 + rng.next_below(4));
  }
  if (rng.chance(0.2)) s.exhaust_bound = 500 + rng.next_below(1500);
  s.adversarial = opt_.allow_adversarial && rng.chance(0.5);

  Model m = Model::initial(s.initial_nodes);

  s.phases.push_back(Phase{"converge", {A::await_converged(600 * kSec)}});

  const std::size_t phase_count = 1 + static_cast<std::size_t>(rng.next_below(3));
  for (std::size_t p = 0; p < phase_count; ++p) {
    Phase phase{"storm-" + std::to_string(p), {}};
    bool churned = false;
    const std::size_t action_count =
        1 + static_cast<std::size_t>(rng.next_below(6));
    for (std::size_t i = 0; i < action_count; ++i) {
      emit_action(rng, m, phase.actions, churned);
    }
    if (churned) {
      // Give the reconfiguration time to catch up with the churn before the
      // next storm piles on (the paper's "majority stays alive long enough"
      // prerequisite), and fold the new population into the model's config.
      // Exact config == alive is only promised when members are evicted on
      // any suspicion (aggressive) AND admitted joiners are folded in
      // (adopt_joiners): the quarter policy tolerates a sub-25% dead
      // minority by design, and without the adoption term churn purely
      // among joiners never triggers a reconfiguration at all. Both were
      // found as fuzzer counterexamples — the second is promoted as the
      // "joiner-adoption" library scenario.
      // Bridge the failure detector's blind window first: right after a
      // crash the survivors still trust the victim, so agreement on the
      // stale config is genuine "convergence" by local knowledge. 30 sim-s
      // is ~10x the theta suspicion latency at this scale.
      phase.actions.push_back(A::run_for(30 * kSec));
      if (s.aggressive_policy && s.adopt_joiners) {
        phase.actions.push_back(A::await_config_equals_alive(1200 * kSec));
      } else {
        phase.actions.push_back(A::await_converged(900 * kSec));
      }
      m.settle_config();
    }
    s.phases.push_back(std::move(phase));
  }

  Phase settle{"settle", {}};
  settle.actions.push_back(A::heal_network());
  settle.actions.push_back(A::await_converged(2400 * kSec));
  if (s.enable_vs) settle.actions.push_back(A::await_vs_stable(1800 * kSec));
  if (rng.chance(0.5)) {
    settle.actions.push_back(A::mark_stable());
    settle.actions.push_back(A::run_for(60 * kSec));
  }
  s.phases.push_back(std::move(settle));

  SSR_ASSERT(spec_references_valid(s), "fuzzer generated an invalid spec");
  return s;
}

std::uint64_t Fuzzer::run_seed(std::uint64_t index) const {
  // Offset parity 2k+2 keeps run-seed derivation off the generator streams.
  Rng rng(opt_.seed + (2 * index + 2) * kGamma);
  // Full-width draw: exercises the Rng::next_range(0, UINT64_MAX) edge.
  return rng.next_range(0, std::numeric_limits<std::uint64_t>::max());
}

std::string Fuzzer::failure_signature(const ScenarioResult& r) {
  if (!r.violations.empty()) {
    return "violation:" + r.violations.front().invariant;
  }
  if (!r.ok) return "failure:" + r.failure;
  return "";
}

namespace {

/// Shrinker candidate enumeration: every one-step reduction of `spec`, most
/// aggressive first (whole phases, then single actions, then parameters,
/// then stack options). Returned lazily-ish as a vector of thunks would be
/// overkill — specs are tiny, so materializing is fine.
std::vector<ScenarioSpec> shrink_candidates(const ScenarioSpec& spec) {
  std::vector<ScenarioSpec> out;

  // 1. Drop a whole phase.
  for (std::size_t p = 0; p < spec.phases.size(); ++p) {
    ScenarioSpec c = spec;
    c.phases.erase(c.phases.begin() + static_cast<std::ptrdiff_t>(p));
    out.push_back(std::move(c));
  }

  // 2. Drop one action.
  for (std::size_t p = 0; p < spec.phases.size(); ++p) {
    for (std::size_t i = 0; i < spec.phases[p].actions.size(); ++i) {
      ScenarioSpec c = spec;
      auto& actions = c.phases[p].actions;
      actions.erase(actions.begin() + static_cast<std::ptrdiff_t>(i));
      if (actions.empty()) {
        c.phases.erase(c.phases.begin() + static_cast<std::ptrdiff_t>(p));
      }
      out.push_back(std::move(c));
    }
  }

  // 3. Simplify action parameters.
  for (std::size_t p = 0; p < spec.phases.size(); ++p) {
    for (std::size_t i = 0; i < spec.phases[p].actions.size(); ++i) {
      const Action& a = spec.phases[p].actions[i];
      if (a.n > 1) {
        ScenarioSpec c = spec;
        c.phases[p].actions[i].n = a.n / 2;
        out.push_back(std::move(c));
      }
      // Halving durations covers run_for AND await budgets: a failure that
      // survives a halved await both tightens the repro and roughly halves
      // the cost of every later shrink re-execution.
      if (a.duration > kSec) {
        ScenarioSpec c = spec;
        c.phases[p].actions[i].duration = a.duration / 2;
        out.push_back(std::move(c));
      }
      if (a.targets.size() > 1) {
        ScenarioSpec c = spec;
        IdSet& t = c.phases[p].actions[i].targets;
        t.erase(*std::prev(t.end()));
        out.push_back(std::move(c));
      }
    }
  }

  // 4. Clear stack options (each separately).
  if (spec.adversarial) {
    ScenarioSpec c = spec;
    c.adversarial = false;
    out.push_back(std::move(c));
  }
  if (spec.aggressive_policy) {
    ScenarioSpec c = spec;
    c.aggressive_policy = false;
    out.push_back(std::move(c));
  }
  if (spec.adopt_joiners) {
    ScenarioSpec c = spec;
    c.adopt_joiners = false;
    out.push_back(std::move(c));
  }
  if (spec.enable_vs) {
    ScenarioSpec c = spec;
    c.enable_vs = false;
    out.push_back(std::move(c));
  }
  if (spec.corrupt_probability != 0.0) {
    ScenarioSpec c = spec;
    c.corrupt_probability = 0.0;
    out.push_back(std::move(c));
  }
  if (spec.exhaust_bound != 0) {
    ScenarioSpec c = spec;
    c.exhaust_bound = 0;
    out.push_back(std::move(c));
  }

  // 5. Fewer initial nodes (validity check filters over-shrunk specs).
  if (spec.initial_nodes > 3) {
    ScenarioSpec c = spec;
    c.initial_nodes -= 1;
    out.push_back(std::move(c));
  }

  return out;
}

}  // namespace

ScenarioSpec Fuzzer::shrink(const ScenarioSpec& spec, std::uint64_t seed,
                            const std::string& signature,
                            std::size_t max_runs, std::size_t* runs_used) {
  ScenarioSpec cur = spec;
  std::size_t runs = 0;
  bool progress = true;
  while (progress && runs < max_runs) {
    progress = false;
    for (ScenarioSpec& cand : shrink_candidates(cur)) {
      if (runs >= max_runs) break;
      if (!spec_references_valid(cand)) continue;
      ++runs;
      const ScenarioResult r = run_scenario(cand, seed);
      if (failure_signature(r) == signature) {
        cur = std::move(cand);
        progress = true;
        break;  // restart enumeration from the smaller spec
      }
    }
  }
  if (runs_used != nullptr) *runs_used = runs;
  return cur;
}

FuzzReport Fuzzer::run_range(std::uint64_t first, std::size_t count) {
  FuzzReport report;

  // Execute the generated case matrix on the sweep engine: jobs=N is
  // byte-identical to jobs=1 (SweepRunner's pinned contract), so the
  // fuzzer's verdicts are independent of parallelism.
  SweepRunner sweep(SweepOptions{opt_.jobs, ""});
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t index = first + i;
    sweep.add(generate(index), run_seed(index));
  }
  SweepSummary summary = sweep.run();
  report.cases_run = summary.results.size();
  report.results = std::move(summary.results);

  // Shrink failures serially, in submission order, so the report is
  // deterministic regardless of which worker surfaced which failure.
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const ScenarioResult& r = report.results[i];
    if (r.ok) continue;
    ++report.failures;
    const std::uint64_t index = first + i;
    Counterexample cex;
    cex.original = generate(index);
    cex.run_seed = run_seed(index);
    cex.signature = failure_signature(r);
    cex.spec = shrink(cex.original, cex.run_seed, cex.signature,
                      opt_.max_shrink_runs, &cex.shrink_runs);
    cex.result = run_scenario(cex.spec, cex.run_seed);
    report.counterexamples.push_back(std::move(cex));
  }
  return report;
}

}  // namespace ssr::scenario
