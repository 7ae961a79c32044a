#include "scenario/scenario.hpp"

#include <algorithm>

#include "fd/theta_fd.hpp"
#include "scenario/trace.hpp"

namespace ssr::scenario {

const char* to_string(ActionKind k) {
  switch (k) {
    case ActionKind::kAddNodes: return "add_nodes";
    case ActionKind::kCrash: return "crash";
    case ActionKind::kReboot: return "reboot";
    case ActionKind::kSplitNetwork: return "split_network";
    case ActionKind::kHealNetwork: return "heal_network";
    case ActionKind::kCorruptRecsa: return "corrupt_recsa";
    case ActionKind::kCorruptFd: return "corrupt_fd";
    case ActionKind::kSplitConfigState: return "split_config_state";
    case ActionKind::kGarbageChannels: return "garbage_channels";
    case ActionKind::kPlantExhaustedCounter: return "plant_exhausted_counter";
    case ActionKind::kPlantRecmaFlags: return "plant_recma_flags";
    case ActionKind::kIncrementBurst: return "increment_burst";
    case ActionKind::kShmemWrite: return "shmem_write";
    case ActionKind::kShmemRead: return "shmem_read";
    case ActionKind::kRunFor: return "run_for";
    case ActionKind::kAwaitConverged: return "await_converged";
    case ActionKind::kAwaitVsStable: return "await_vs_stable";
    case ActionKind::kAwaitParticipants: return "await_participants";
    case ActionKind::kAwaitConfigEqualsAlive: return "await_config_equals_alive";
    case ActionKind::kMarkStable: return "mark_stable";
    case ActionKind::kCrashAll: return "crash_all";
    case ActionKind::kAwaitQuiescent: return "await_quiescent";
    case ActionKind::kPauseNodes: return "pause_nodes";
    case ActionKind::kResumeNodes: return "resume_nodes";
  }
  return "unknown";
}

std::uint64_t Action::digest() const {
  std::uint64_t h = TraceRecorder::kFnvBasis;
  h = TraceRecorder::mix(h, TraceRecorder::digest(targets));
  h = TraceRecorder::mix(h, TraceRecorder::digest(group_b));
  h = TraceRecorder::mix(h, n);
  h = TraceRecorder::mix(h, duration);
  for (char c : reg) h = TraceRecorder::mix(h, static_cast<std::uint8_t>(c));
  return h;
}

Action Action::add_nodes(std::uint64_t count) {
  return {.kind = ActionKind::kAddNodes, .n = count};
}

Action Action::crash(IdSet targets) {
  return {.kind = ActionKind::kCrash, .targets = std::move(targets)};
}

Action Action::reboot(IdSet targets) {
  return {.kind = ActionKind::kReboot, .targets = std::move(targets)};
}

Action Action::split_network(IdSet x, IdSet y) {
  return {.kind = ActionKind::kSplitNetwork, .targets = std::move(x),
          .group_b = std::move(y)};
}

Action Action::heal_network() { return {.kind = ActionKind::kHealNetwork}; }

Action Action::corrupt_recsa(IdSet targets) {
  return {.kind = ActionKind::kCorruptRecsa, .targets = std::move(targets)};
}

Action Action::corrupt_fd(IdSet targets) {
  return {.kind = ActionKind::kCorruptFd, .targets = std::move(targets)};
}

Action Action::split_config_state(IdSet x, IdSet y) {
  return {.kind = ActionKind::kSplitConfigState, .targets = std::move(x),
          .group_b = std::move(y)};
}

Action Action::garbage_channels(std::uint64_t per_channel) {
  return {.kind = ActionKind::kGarbageChannels, .n = per_channel};
}

Action Action::plant_exhausted_counter(IdSet targets, std::uint64_t seqn) {
  return {.kind = ActionKind::kPlantExhaustedCounter,
          .targets = std::move(targets), .n = seqn};
}

Action Action::plant_recma_flags(IdSet targets, bool no_maj, bool need_reconf) {
  return {.kind = ActionKind::kPlantRecmaFlags, .targets = std::move(targets),
          .n = (no_maj ? 1u : 0u) | (need_reconf ? 2u : 0u)};
}

Action Action::increment_burst(std::uint64_t ops_per_node, IdSet targets) {
  return {.kind = ActionKind::kIncrementBurst, .targets = std::move(targets),
          .n = ops_per_node};
}

Action Action::shmem_write(IdSet targets, std::string reg, std::uint64_t salt) {
  return {.kind = ActionKind::kShmemWrite, .targets = std::move(targets),
          .n = salt, .reg = std::move(reg)};
}

Action Action::shmem_read(IdSet targets, std::string reg) {
  return {.kind = ActionKind::kShmemRead, .targets = std::move(targets),
          .reg = std::move(reg)};
}

Action Action::run_for(SimTime d) {
  return {.kind = ActionKind::kRunFor, .duration = d};
}

Action Action::await_converged(SimTime timeout) {
  return {.kind = ActionKind::kAwaitConverged, .duration = timeout};
}

Action Action::await_vs_stable(SimTime timeout) {
  return {.kind = ActionKind::kAwaitVsStable, .duration = timeout};
}

Action Action::await_participants(IdSet targets, SimTime timeout) {
  return {.kind = ActionKind::kAwaitParticipants, .targets = std::move(targets),
          .duration = timeout};
}

Action Action::await_config_equals_alive(SimTime timeout) {
  return {.kind = ActionKind::kAwaitConfigEqualsAlive, .duration = timeout};
}

Action Action::mark_stable() { return {.kind = ActionKind::kMarkStable}; }

Action Action::crash_all() { return {.kind = ActionKind::kCrashAll}; }

Action Action::await_quiescent(SimTime budget) {
  return {.kind = ActionKind::kAwaitQuiescent, .duration = budget};
}

Action Action::pause_nodes(IdSet targets) {
  return {.kind = ActionKind::kPauseNodes, .targets = std::move(targets)};
}

Action Action::resume_nodes(IdSet targets) {
  return {.kind = ActionKind::kResumeNodes, .targets = std::move(targets)};
}

bool spec_references_valid(const ScenarioSpec& spec) {
  // Every minted id is a whole protocol stack (a daemon under the process
  // backend), so a spec file may ask for no more than the paper's N.
  const std::uint64_t max_ids = fd::FdConfig{}.max_nodes;
  if (spec.initial_nodes == 0 || spec.initial_nodes > max_ids) return false;
  std::uint64_t minted = spec.initial_nodes;
  for (const Phase& phase : spec.phases) {
    for (const Action& a : phase.actions) {
      const auto exists = [minted](NodeId id) {
        return id != 0 && id <= minted;
      };
      if (!std::all_of(a.targets.begin(), a.targets.end(), exists) ||
          !std::all_of(a.group_b.begin(), a.group_b.end(), exists)) {
        return false;
      }
      std::uint64_t fresh = 0;
      if (a.kind == ActionKind::kAddNodes) fresh = a.n;
      if (a.kind == ActionKind::kReboot) fresh = a.targets.size();
      if (fresh > max_ids - minted) return false;
      minted += fresh;
    }
  }
  return true;
}

}  // namespace ssr::scenario
