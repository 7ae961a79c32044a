#include "scenario/library.hpp"

namespace ssr::scenario {
namespace {

using A = Action;

ScenarioSpec bootstrap() {
  ScenarioSpec s;
  s.name = "bootstrap";
  s.description =
      "5 nodes boot from the all-joiner state, converge to one common "
      "configuration, then hold it (closure) for a quiet minute";
  s.initial_nodes = 5;
  s.phases = {
      {"converge", {A::await_converged(180 * kSec)}},
      {"closure", {A::mark_stable(), A::run_for(60 * kSec)}},
  };
  return s;
}

ScenarioSpec rolling_churn() {
  ScenarioSpec s;
  s.name = "rolling-churn";
  s.description =
      "join one / crash one waves under the aggressive replacement policy; "
      "the configuration follows the participation through every wave";
  s.initial_nodes = 4;
  s.aggressive_policy = true;
  s.phases = {
      {"converge", {A::await_converged(180 * kSec)}},
      {"wave-1",
       {A::add_nodes(1), A::await_participants({5}, 600 * kSec),
        A::crash({1}), A::await_config_equals_alive(900 * kSec)}},
      {"wave-2",
       {A::add_nodes(1), A::await_participants({6}, 600 * kSec),
        A::crash({2}), A::await_config_equals_alive(900 * kSec)}},
  };
  return s;
}

ScenarioSpec majority_split() {
  ScenarioSpec s;
  s.name = "majority-split";
  s.description =
      "a planted configuration conflict (half believe {1,2,3}, half "
      "{3,4,5}) is detected as stale information and resolved";
  s.initial_nodes = 5;
  s.phases = {
      {"converge", {A::await_converged(180 * kSec)}},
      {"split", {A::split_config_state({1, 2, 3}, {3, 4, 5})}},
      {"recover", {A::await_converged(900 * kSec)}},
  };
  return s;
}

ScenarioSpec flood_of_joiners() {
  ScenarioSpec s;
  s.name = "flood-of-joiners";
  s.description =
      "a 3-node configuration admits 6 simultaneous joiners; joins must "
      "not move the configuration";
  s.initial_nodes = 3;
  s.phases = {
      {"converge", {A::await_converged(180 * kSec)}},
      {"flood",
       {A::add_nodes(6),
        A::await_participants({4, 5, 6, 7, 8, 9}, 900 * kSec)}},
      {"settle",
       {A::await_converged(300 * kSec), A::mark_stable(),
        A::run_for(60 * kSec)}},
  };
  return s;
}

ScenarioSpec epoch_rollover() {
  ScenarioSpec s;
  s.name = "epoch-rollover";
  s.description =
      "a planted near-exhausted counter (the classic transient fault of "
      "section 4.1) is cancelled; increments keep completing in order";
  s.initial_nodes = 3;
  s.exhaust_bound = 1ULL << 20;
  s.phases = {
      {"converge", {A::await_converged(180 * kSec), A::run_for(30 * kSec)}},
      {"exhaust",
       {A::plant_exhausted_counter({2}, (1ULL << 20) + 5),
        A::run_for(60 * kSec)}},
      {"workload", {A::increment_burst(2), A::await_converged(300 * kSec)}},
  };
  return s;
}

ScenarioSpec garbage_channel_recovery() {
  ScenarioSpec s;
  s.name = "garbage-channel-recovery";
  s.description =
      "every channel is stuffed with arbitrary stale packets; decoders "
      "survive, the token links flush them, and the system re-converges";
  s.initial_nodes = 4;
  s.phases = {
      {"converge", {A::await_converged(180 * kSec)}},
      {"garbage", {A::garbage_channels(3), A::await_converged(600 * kSec)}},
      {"closure", {A::mark_stable(), A::run_for(60 * kSec)}},
  };
  return s;
}

ScenarioSpec partition_heal() {
  ScenarioSpec s;
  s.name = "partition-heal";
  s.description =
      "a minority {1,2} is cut off from the majority {3,4,5}; after the "
      "heal both sides resolve any divergence into one configuration";
  s.initial_nodes = 5;
  s.phases = {
      {"converge", {A::await_converged(180 * kSec)}},
      {"partition",
       {A::split_network({1, 2}, {3, 4, 5}), A::run_for(120 * kSec)}},
      {"heal", {A::heal_network(), A::await_converged(1800 * kSec)}},
  };
  return s;
}

ScenarioSpec silent_after_convergence() {
  ScenarioSpec s;
  s.name = "silent-after-convergence";
  s.description =
      "after convergence the system is silent at the config level "
      "(closure) and, once every node crashes, the event queue drains to "
      "empty — nothing keeps running";
  s.initial_nodes = 3;
  s.phases = {
      {"converge", {A::await_converged(180 * kSec)}},
      {"silence", {A::mark_stable(), A::run_for(120 * kSec)}},
      {"teardown", {A::crash_all(), A::await_quiescent(30 * kSec)}},
  };
  return s;
}

ScenarioSpec transient_blast() {
  ScenarioSpec s;
  s.name = "transient-blast";
  s.description =
      "the canonical arbitrary starting state: every node's recSA and FD "
      "state corrupted and every channel garbaged at once; Theorem 3.15 "
      "convergence from scratch";
  s.initial_nodes = 4;
  s.phases = {
      {"converge", {A::await_converged(180 * kSec)}},
      {"blast",
       {A::corrupt_recsa(), A::corrupt_fd(), A::garbage_channels(2)}},
      {"recover",
       {A::await_converged(1200 * kSec), A::mark_stable(),
        A::run_for(60 * kSec)}},
  };
  return s;
}

ScenarioSpec crash_respawn() {
  ScenarioSpec s;
  s.name = "crash-respawn";
  s.description =
      "a member is crash-stopped and a fresh processor takes the slot "
      "(identifiers are never reused); the configuration follows the "
      "replacement and then holds";
  s.initial_nodes = 4;
  s.aggressive_policy = true;
  s.phases = {
      {"converge", {A::await_converged(180 * kSec)}},
      // The reboot replaces the crashed member in the configuration (the
      // aggressive policy reconfigures as soon as a member is suspected)
      // and the fresh processor is admitted as a participant of whatever
      // configuration results.
      {"respawn",
       {A::reboot({2}), A::await_participants({5}, 900 * kSec)}},
      {"closure",
       {A::await_converged(900 * kSec), A::mark_stable(),
        A::run_for(60 * kSec)}},
  };
  return s;
}

ScenarioSpec stall_resume() {
  ScenarioSpec s;
  s.name = "stall-resume";
  s.description =
      "one member freezes long enough to be suspected (SIGSTOP under the "
      "process backend, fabric isolation under the simulator), then resumes "
      "with stale timers; the system re-converges either way";
  s.initial_nodes = 4;
  s.phases = {
      {"converge", {A::await_converged(180 * kSec)}},
      {"stall", {A::pause_nodes({2}), A::run_for(120 * kSec)}},
      {"resume", {A::resume_nodes({2}), A::await_converged(1800 * kSec)}},
      {"closure", {A::mark_stable(), A::run_for(60 * kSec)}},
  };
  return s;
}

ScenarioSpec pause_through_heal() {
  ScenarioSpec s;
  s.name = "pause-through-heal";
  s.description =
      "a partitioned member is frozen, the partition heals while it is "
      "stopped, and only then does it resume — the wake-up must see the "
      "healed fabric (stale filters/isolation must not survive the resume)";
  s.initial_nodes = 4;
  s.phases = {
      {"converge", {A::await_converged(180 * kSec)}},
      {"cut",
       {A::split_network({2}, {1, 3, 4}), A::run_for(60 * kSec),
        A::pause_nodes({2}), A::run_for(30 * kSec)}},
      {"heal-while-stopped", {A::heal_network(), A::run_for(30 * kSec)}},
      {"wake", {A::resume_nodes({2}), A::await_converged(1800 * kSec)}},
      {"closure", {A::mark_stable(), A::run_for(60 * kSec)}},
  };
  return s;
}

ScenarioSpec joiner_adoption() {
  ScenarioSpec s;
  s.name = "joiner-adoption";
  s.description =
      "churn purely among joiners (two admitted, one of them crashes) with "
      "no config member ever suspected; the configuration must still catch "
      "up with the alive set — the shrunk scenario_fuzz counterexample that "
      "motivated the adopt_joiners policy term";
  s.initial_nodes = 3;
  s.aggressive_policy = true;
  s.adopt_joiners = true;
  s.phases = {
      {"converge", {A::await_converged(180 * kSec)}},
      // Nodes 4 and 5 are admitted as participants of config {1,2,3}; node
      // 5 crashes before any reconfiguration is obliged to happen. Neither
      // event suspects a config member, so without the adoption term no
      // eval trigger ever fires and the config stays {1,2,3} forever.
      {"joiner-churn",
       {A::add_nodes(2), A::await_participants({4, 5}, 600 * kSec),
        A::crash({5}), A::await_config_equals_alive(900 * kSec)}},
      {"closure",
       {A::await_converged(600 * kSec), A::mark_stable(),
        A::run_for(60 * kSec)}},
  };
  return s;
}

ScenarioSpec crash_then_stable() {
  ScenarioSpec s;
  s.name = "crash-then-stable";
  s.description =
      "two members crash, then the run demands convergence and closure; "
      "promoted from a scenario_fuzz counterexample where await_converged "
      "accepted agreement on the stale config before the failure detector "
      "suspected the victims, and mark_stable raced the pending eviction";
  s.initial_nodes = 5;
  s.aggressive_policy = true;
  s.phases = {
      {"converge", {A::await_converged(180 * kSec)}},
      // run_for bridges the FD blind window; the strengthened converged()
      // predicate (policy quiet at every alive node) then holds the await
      // open until the eviction reconfiguration has actually finished.
      {"cull",
       {A::crash({3, 5}), A::run_for(30 * kSec),
        A::await_converged(900 * kSec)}},
      {"closure", {A::mark_stable(), A::run_for(60 * kSec)}},
  };
  return s;
}

ScenarioSpec adversarial_bitflips() {
  ScenarioSpec s;
  s.name = "adversarial-bitflips";
  s.description =
      "full stack with the VS layer under worst-case scheduling plus 1% "
      "wire bit flips; promoted from a scenario_fuzz counterexample where "
      "a flipped bit inside a value field decoded as a valid message and "
      "broke virtual synchrony — frames are sealed with crc32c since";
  s.initial_nodes = 5;
  s.enable_vs = true;
  s.corrupt_probability = 0.01;
  s.adversarial = true;
  s.phases = {
      {"converge", {A::await_converged(600 * kSec)}},
      {"blizzard", {A::run_for(60 * kSec)}},
      {"settle",
       {A::await_converged(1200 * kSec), A::await_vs_stable(1200 * kSec),
        A::mark_stable(), A::run_for(60 * kSec)}},
  };
  return s;
}

ScenarioSpec vs_workload() {
  ScenarioSpec s;
  s.name = "vs-workload";
  s.description =
      "full stack with the virtually synchronous SMR layer: counter "
      "increments and shared-memory reads/writes while the VS monitor "
      "checks batch agreement at every (view, round)";
  s.initial_nodes = 3;
  s.enable_vs = true;
  s.phases = {
      {"converge",
       {A::await_converged(300 * kSec), A::await_vs_stable(900 * kSec)}},
      {"workload",
       {A::mark_stable(), A::increment_burst(2),
        A::shmem_write({1}, "x", 42), A::shmem_read({2}, "x"),
        A::run_for(30 * kSec)}},
      {"stable", {A::await_vs_stable(600 * kSec)}},
  };
  return s;
}

}  // namespace

const std::vector<ScenarioSpec>& library() {
  static const std::vector<ScenarioSpec> specs = {
      bootstrap(),
      rolling_churn(),
      majority_split(),
      flood_of_joiners(),
      epoch_rollover(),
      garbage_channel_recovery(),
      partition_heal(),
      silent_after_convergence(),
      transient_blast(),
      crash_respawn(),
      stall_resume(),
      pause_through_heal(),
      joiner_adoption(),
      crash_then_stable(),
      adversarial_bitflips(),
      vs_workload(),
  };
  return specs;
}

std::optional<ScenarioSpec> find_scenario(const std::string& name) {
  for (const ScenarioSpec& s : library()) {
    if (s.name == name) return s;
  }
  return std::nullopt;
}

}  // namespace ssr::scenario
