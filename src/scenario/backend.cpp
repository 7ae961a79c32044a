#include "scenario/backend.hpp"

#include <ranges>
#include <sstream>

namespace ssr::scenario {

std::string ScenarioResult::summary() const {
  std::ostringstream os;
  os << name << " seed=" << seed << " " << (ok ? "OK" : "FAIL")
     << " events=" << trace_events << " hash=" << std::hex << trace_hash
     << std::dec << " sim=" << sim_time / kSec << "s";
  if (ops_completed > 0) {
    os << " ops=" << ops_completed << " p50=" << op_p50_us << "us"
       << " p99=" << op_p99_us << "us";
  }
  if (net_syscalls > 0) {
    os << " syscalls=" << net_syscalls << " batched=" << net_batched;
  }
  if (!failure.empty()) os << " failure=\"" << failure << "\"";
  for (const auto& v : violations) {
    os << "\n  violation[" << v.invariant << "]: " << v.message;
  }
  return os.str();
}

ScenarioBackend::ScenarioBackend(ScenarioSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      seed_(seed),
      next_id_(static_cast<NodeId>(spec_.initial_nodes + 1)) {}

void ScenarioBackend::fail(std::string what) {
  if (failed_) return;
  failed_ = true;
  failure_ = std::move(what);
}

ScenarioResult ScenarioBackend::run() {
  bootstrap();
  for (const Phase& phase : spec_.phases) {
    if (failed_) break;
    trace().record(TraceKind::kPhaseStart, kNoNode,
                   TraceRecorder::digest(phase.name));
    for (const Action& a : phase.actions) step(a);
  }
  return finish();
}

void ScenarioBackend::step(const Action& a) {
  if (failed_) return;
  trace().record(TraceKind::kActionApplied, kNoNode,
                 static_cast<std::uint64_t>(a.kind), a.digest());
  apply(a);
}

ScenarioResult ScenarioBackend::finish() {
  harvest();
  ScenarioResult r;
  r.name = spec_.name;
  r.seed = seed_;
  r.violations = invariants().check_all();
  r.trace_hash = trace().hash();
  r.trace_events = trace().size();
  fill_result(r);
  r.ops_completed = r.op_latency.count();
  r.op_p50_us = r.op_latency.percentile(50);
  r.op_p99_us = r.op_latency.percentile(99);
  r.failure = failure_;
  r.ok = !failed_ && r.violations.empty();
  // Any failure, a missed await or an invariant violation, marks the run
  // failed (the process backend keeps its scratch directory then).
  if (!r.ok) failed_ = true;
  return r;
}

auto ScenarioBackend::snapshots() {
  return alive() |
         std::views::transform([this](NodeId id) { return snapshot(id); });
}

bool ScenarioBackend::converged() {
  return node::common_config(snapshots()).has_value();
}

template <class Pred>
bool ScenarioBackend::await_alive(const Action& a, const char* failure,
                                  Pred met) {
  if (wait_until(a.duration, [&] { return met(snapshots()); })) return true;
  fail(a, failure);
  return false;
}

void ScenarioBackend::apply(const Action& a) {
  InvariantRegistry& registry = invariants();
  // Every fault, churn and partition closes the open closure window
  // (unmark_stable), so a window covers one fault-free stretch.
  switch (a.kind) {
    case ActionKind::kAddNodes:
      registry.unmark_stable();
      for (std::uint64_t i = 0; i < a.n && !failed_; ++i) spawn(next_id_++);
      return;
    case ActionKind::kCrash:
      registry.unmark_stable();
      for (NodeId id : a.targets) crash(id);
      return;
    case ActionKind::kReboot:
      registry.unmark_stable();
      // Identifiers are never reused (paper, Section 2): a reboot is a
      // crash-stop plus a fresh processor taking the slot.
      for (NodeId id : a.targets) {
        crash(id);
        if (!failed_) spawn(next_id_++);
      }
      return;
    case ActionKind::kSplitNetwork:
      registry.unmark_stable();
      cut(a.targets, a.group_b);
      return;
    case ActionKind::kHealNetwork:
      heal();
      return;
    case ActionKind::kCorruptRecsa: {
      registry.unmark_stable();
      // The corrupted records name ids of the alive set.
      const StateFault f{.kind = StateFault::Kind::kRecsa, .ids = alive()};
      for (NodeId id : targets_or_alive(a)) inject(id, f);
      return;
    }
    case ActionKind::kCorruptFd:
      registry.unmark_stable();
      for (NodeId id : targets_or_alive(a)) {
        inject(id, {.kind = StateFault::Kind::kFd});
      }
      return;
    case ActionKind::kSplitConfigState: {
      registry.unmark_stable();
      // The first half of the alive set (in id order) believes `targets`,
      // the rest believe `group_b`.
      const IdSet all = alive();
      std::size_t i = 0;
      for (NodeId id : all) {
        const bool first_half = i++ < all.size() / 2;
        inject(id, {.kind = StateFault::Kind::kConfig,
                    .ids = first_half ? a.targets : a.group_b});
      }
      return;
    }
    case ActionKind::kGarbageChannels:
      registry.unmark_stable();
      garbage(a.n);
      return;
    case ActionKind::kPlantExhaustedCounter:
      registry.unmark_stable();
      for (NodeId id : a.targets) {
        inject(id, {.kind = StateFault::Kind::kCounter, .n = a.n});
      }
      return;
    case ActionKind::kPlantRecmaFlags: {
      registry.unmark_stable();
      // The flags cover every entry of the alive set.
      const StateFault f{.kind = StateFault::Kind::kRecmaFlags,
                         .ids = alive(), .n = a.n};
      for (NodeId id : a.targets) inject(id, f);
      return;
    }
    case ActionKind::kIncrementBurst:
      increments(targets_or_alive(a), a.n);
      harvest();
      return;
    case ActionKind::kShmemWrite:
      shmem(targets_or_alive(a), /*write=*/true, a.reg, a.n);
      return;
    case ActionKind::kShmemRead:
      shmem(targets_or_alive(a), /*write=*/false, a.reg, a.n);
      return;
    case ActionKind::kRunFor:
      run_for(a.duration);
      return;
    case ActionKind::kAwaitConverged:
      if (!wait_until(a.duration, [this] { return converged(); })) {
        fail(a, "no convergence within the time budget");
        return;
      }
      trace().record(TraceKind::kConverged, kNoNode,
                     TraceRecorder::digest(*node::common_config(snapshots())));
      return;
    case ActionKind::kAwaitVsStable:
      if (await_alive(a, "VS layer did not stabilize",
                      [](auto&& alive) { return node::vs_stable(alive); })) {
        trace().record(TraceKind::kVsStable, kNoNode);
      }
      return;
    case ActionKind::kAwaitParticipants:
      await_alive(a, "targets were not admitted as participants",
                  [&a](auto&& alive) {
                    return node::targets_admitted(alive, a.targets);
                  });
      return;
    case ActionKind::kAwaitConfigEqualsAlive:
      await_alive(
          a, "configuration did not catch up with the alive set",
          [](auto&& alive) { return node::config_equals_alive(alive); });
      return;
    case ActionKind::kMarkStable:
      refresh();
      registry.mark_stable();
      trace().record(TraceKind::kStableMarked, kNoNode);
      return;
    case ActionKind::kCrashAll:
      registry.unmark_stable();
      for (NodeId id : alive()) crash(id);
      return;
    case ActionKind::kAwaitQuiescent: {
      if (!alive().empty()) {
        registry.report("silence", false,
                        "await_quiescent requires every node crashed first");
        return;
      }
      const bool drained = drain(a.duration);
      registry.report("silence", drained,
                      "scheduler still holds live events after every node "
                      "crashed (silent stabilization violated)");
      trace().record(TraceKind::kQuiescent, kNoNode, drained ? 1 : 0);
      return;
    }
    case ActionKind::kPauseNodes:
      registry.unmark_stable();
      for (NodeId id : a.targets) pause(id);
      return;
    case ActionKind::kResumeNodes:
      for (NodeId id : a.targets) resume(id);
      return;
  }
}

}  // namespace ssr::scenario
