#include "scenario/scenario.hpp"

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
    case ActionKind::kKeyedIncrements: return "keyed_increments";
    case ActionKind::kGrowMap: return "grow_map";
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
  if (shard != 0) h = TraceRecorder::mix(h, shard);
  return h;
}

Action Action::add_nodes(std::uint64_t count) {
  Action a;
  a.kind = ActionKind::kAddNodes;
  a.n = count;
  return a;
}

Action Action::crash(IdSet targets) {
  Action a;
  a.kind = ActionKind::kCrash;
  a.targets = std::move(targets);
  return a;
}

Action Action::reboot(IdSet targets) {
  Action a;
  a.kind = ActionKind::kReboot;
  a.targets = std::move(targets);
  return a;
}

Action Action::split_network(IdSet x, IdSet y) {
  Action a;
  a.kind = ActionKind::kSplitNetwork;
  a.targets = std::move(x);
  a.group_b = std::move(y);
  return a;
}

Action Action::heal_network() {
  Action a;
  a.kind = ActionKind::kHealNetwork;
  return a;
}

Action Action::corrupt_recsa(IdSet targets) {
  Action a;
  a.kind = ActionKind::kCorruptRecsa;
  a.targets = std::move(targets);
  return a;
}

Action Action::corrupt_fd(IdSet targets) {
  Action a;
  a.kind = ActionKind::kCorruptFd;
  a.targets = std::move(targets);
  return a;
}

Action Action::split_config_state(IdSet x, IdSet y) {
  Action a;
  a.kind = ActionKind::kSplitConfigState;
  a.targets = std::move(x);
  a.group_b = std::move(y);
  return a;
}

Action Action::garbage_channels(std::uint64_t per_channel) {
  Action a;
  a.kind = ActionKind::kGarbageChannels;
  a.n = per_channel;
  return a;
}

Action Action::plant_exhausted_counter(IdSet targets, std::uint64_t seqn) {
  Action a;
  a.kind = ActionKind::kPlantExhaustedCounter;
  a.targets = std::move(targets);
  a.n = seqn;
  return a;
}

Action Action::plant_recma_flags(IdSet targets, bool no_maj, bool need_reconf) {
  Action a;
  a.kind = ActionKind::kPlantRecmaFlags;
  a.targets = std::move(targets);
  a.n = (no_maj ? 1u : 0u) | (need_reconf ? 2u : 0u);
  return a;
}

Action Action::increment_burst(std::uint64_t ops_per_node, IdSet targets) {
  Action a;
  a.kind = ActionKind::kIncrementBurst;
  a.targets = std::move(targets);
  a.n = ops_per_node;
  return a;
}

Action Action::shmem_write(IdSet targets, std::string reg, std::uint64_t salt) {
  Action a;
  a.kind = ActionKind::kShmemWrite;
  a.targets = std::move(targets);
  a.reg = std::move(reg);
  a.n = salt;
  return a;
}

Action Action::shmem_read(IdSet targets, std::string reg) {
  Action a;
  a.kind = ActionKind::kShmemRead;
  a.targets = std::move(targets);
  a.reg = std::move(reg);
  return a;
}

Action Action::run_for(SimTime d) {
  Action a;
  a.kind = ActionKind::kRunFor;
  a.duration = d;
  return a;
}

Action Action::await_converged(SimTime timeout) {
  Action a;
  a.kind = ActionKind::kAwaitConverged;
  a.duration = timeout;
  return a;
}

Action Action::await_vs_stable(SimTime timeout) {
  Action a;
  a.kind = ActionKind::kAwaitVsStable;
  a.duration = timeout;
  return a;
}

Action Action::await_participants(IdSet targets, SimTime timeout) {
  Action a;
  a.kind = ActionKind::kAwaitParticipants;
  a.targets = std::move(targets);
  a.duration = timeout;
  return a;
}

Action Action::await_config_equals_alive(SimTime timeout) {
  Action a;
  a.kind = ActionKind::kAwaitConfigEqualsAlive;
  a.duration = timeout;
  return a;
}

Action Action::mark_stable() {
  Action a;
  a.kind = ActionKind::kMarkStable;
  return a;
}

Action Action::crash_all() {
  Action a;
  a.kind = ActionKind::kCrashAll;
  return a;
}

Action Action::await_quiescent(SimTime budget) {
  Action a;
  a.kind = ActionKind::kAwaitQuiescent;
  a.duration = budget;
  return a;
}

Action Action::pause_nodes(IdSet targets) {
  Action a;
  a.kind = ActionKind::kPauseNodes;
  a.targets = std::move(targets);
  return a;
}

Action Action::resume_nodes(IdSet targets) {
  Action a;
  a.kind = ActionKind::kResumeNodes;
  a.targets = std::move(targets);
  return a;
}

Action Action::keyed_increments(std::uint64_t count, std::string key_prefix) {
  Action a;
  a.kind = ActionKind::kKeyedIncrements;
  a.n = count;
  a.reg = std::move(key_prefix);
  return a;
}

Action Action::grow_map() {
  Action a;
  a.kind = ActionKind::kGrowMap;
  return a;
}

}  // namespace ssr::scenario
