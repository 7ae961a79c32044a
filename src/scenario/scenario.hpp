#pragma once

#include <string>
#include <vector>

#include "util/id_set.hpp"
#include "util/types.hpp"

namespace ssr::scenario {

/// One step of a scenario script. Actions are plain data so a spec can be
/// printed, hashed and replayed; ScenarioBackend::apply interprets them over
/// the simulator or the process fleet.
enum class ActionKind : std::uint8_t {
  kAddNodes = 1,      ///< n: nodes to add (fresh sequential ids)
  kCrash,             ///< targets: crash-stop these nodes
  kReboot,            ///< targets: crash each and add a fresh replacement
  kSplitNetwork,      ///< targets | group_b: block cross traffic
  kHealNetwork,       ///< remove every partition
  kCorruptRecsa,      ///< targets (empty = all alive): arbitrary recSA state
  kCorruptFd,         ///< targets (empty = all alive): scrambled FD counts
  kSplitConfigState,  ///< plant config conflict targets-believe vs b-believe
  kGarbageChannels,   ///< n: garbage packets per channel
  kPlantExhaustedCounter,  ///< targets, n = seqn near the exhaustion bound
  kPlantRecmaFlags,   ///< targets, n bit0 = noMaj, bit1 = needReconf
  kIncrementBurst,    ///< targets (empty = all alive), n = ops per node
  kShmemWrite,        ///< targets write register `reg` (payload from n)
  kShmemRead,         ///< targets read register `reg`
  kRunFor,            ///< duration of plain execution
  kAwaitConverged,    ///< duration = timeout (Theorem 3.15 predicate)
  kAwaitVsStable,     ///< duration = timeout (one view, one coordinator)
  kAwaitParticipants, ///< targets are participants within duration
  kAwaitConfigEqualsAlive,  ///< config catches up with churn within duration
  kMarkStable,        ///< opens a closure window (no config changes allowed)
  kCrashAll,          ///< crash every alive node (teardown)
  kAwaitQuiescent,    ///< duration = drain budget; scheduler must empty
  kPauseNodes,        ///< targets: freeze (SIGSTOP under the process
                      ///< backend; fabric isolation under the simulator — a
                      ///< stopped process is unreachable from the outside)
  kResumeNodes,       ///< targets: unfreeze (SIGCONT / fabric rejoin)
};

const char* to_string(ActionKind k);

struct Action {
  ActionKind kind = ActionKind::kRunFor;
  IdSet targets = {};
  IdSet group_b = {};
  std::uint64_t n = 0;
  SimTime duration = 0;
  std::string reg = {};

  /// Parameter digest recorded with kActionApplied.
  std::uint64_t digest() const;

  // -- Named constructors (keep scenario scripts readable) -------------------
  static Action add_nodes(std::uint64_t count);
  static Action crash(IdSet targets);
  static Action reboot(IdSet targets);
  static Action split_network(IdSet a, IdSet b);
  static Action heal_network();
  static Action corrupt_recsa(IdSet targets = {});
  static Action corrupt_fd(IdSet targets = {});
  static Action split_config_state(IdSet a, IdSet b);
  static Action garbage_channels(std::uint64_t per_channel);
  static Action plant_exhausted_counter(IdSet targets, std::uint64_t seqn);
  static Action plant_recma_flags(IdSet targets, bool no_maj, bool need_reconf);
  static Action increment_burst(std::uint64_t ops_per_node, IdSet targets = {});
  static Action shmem_write(IdSet targets, std::string reg, std::uint64_t salt);
  static Action shmem_read(IdSet targets, std::string reg);
  static Action run_for(SimTime d);
  static Action await_converged(SimTime timeout);
  static Action await_vs_stable(SimTime timeout);
  static Action await_participants(IdSet targets, SimTime timeout);
  static Action await_config_equals_alive(SimTime timeout);
  static Action mark_stable();
  static Action crash_all();
  static Action await_quiescent(SimTime budget);
  static Action pause_nodes(IdSet targets);
  static Action resume_nodes(IdSet targets);
};

struct Phase {
  std::string name;
  std::vector<Action> actions;
};

/// A declarative execution shape: initial population, stack options, and a
/// sequence of named phases. Specs carry no randomness of their own — every
/// random choice during a run flows from the runner's seed, so a (spec,
/// seed) pair names one exact execution.
struct ScenarioSpec {
  std::string name;
  std::string description;
  std::size_t initial_nodes = 3;
  bool enable_vs = false;
  /// Replace-on-any-suspect prediction policy (default: quarter policy).
  bool aggressive_policy = false;
  /// Extends the prediction policy with a joiner-adoption term: advise
  /// reconfiguration while some trusted recSA participant is missing from
  /// the configuration. Without it, churn purely among joiners (no config
  /// member ever suspected) leaves the configuration frozen forever — the
  /// eval trigger counts only suspected members, and estab(participants())
  /// fires solely on eviction triggers. Found by scenario_fuzz; see the
  /// "joiner-adoption" library scenario for the minimal shape.
  bool adopt_joiners = false;
  double corrupt_probability = 0.0;
  /// 0 = keep the counter default exhaustion bound.
  std::uint64_t exhaust_bound = 0;
  /// Worst-case delivery scheduling (net::Adversary): delay the believed
  /// coordinator's frames, reorder across partition boundaries, deliver
  /// stale-label retransmissions first. Deterministic per (spec, seed);
  /// simulator backend only (the process backend ignores it).
  bool adversarial = false;
  std::vector<Phase> phases;
};

/// True when every node id the spec names exists by the time it is used, and
/// the spec mints no more ids than the paper's N (fd::FdConfig::max_nodes):
/// ids are 1-based and minted in order — the initial cohort, then one per
/// add_nodes unit and one per reboot target. load_spec refuses spec files
/// that fail it; the fuzzer generates and shrinks only inside it.
bool spec_references_valid(const ScenarioSpec& spec);

}  // namespace ssr::scenario
