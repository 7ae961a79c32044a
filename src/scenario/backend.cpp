#include "scenario/backend.hpp"

#include <algorithm>
#include <ranges>
#include <sstream>

#include "util/assert.hpp"

namespace ssr::scenario {
namespace {

void head_line(std::ostream& os, const ScenarioResult& r) {
  os << r.name << " seed=" << r.seed << " " << (r.ok ? "OK" : "FAIL")
     << " events=" << r.trace_events << " hash=" << std::hex << r.trace_hash
     << std::dec << " sim=" << r.sim_time / kSec << "s";
  if (r.ops_completed > 0) {
    os << " ops=" << r.ops_completed << " p50=" << r.op_p50_us << "us"
       << " p99=" << r.op_p99_us << "us";
  }
  if (r.ops_attempted > 0) {
    os << " keyed="
       << r.ops_attempted - r.ops_aborted_faulted - r.ops_aborted_healthy
       << "/" << r.ops_attempted;
    if (r.ops_aborted_faulted != 0 || r.ops_aborted_healthy != 0) {
      os << " aborted(faulted=" << r.ops_aborted_faulted
         << " healthy=" << r.ops_aborted_healthy << ")";
    }
    if (r.ops_redirected != 0) os << " redirects=" << r.ops_redirected;
  }
  if (r.net_syscalls > 0) {
    os << " syscalls=" << r.net_syscalls << " batched=" << r.net_batched;
  }
  if (!r.failure.empty()) os << " failure=\"" << r.failure << "\"";
}

}  // namespace

std::string ScenarioResult::summary() const {
  std::ostringstream os;
  head_line(os, *this);
  for (const auto& v : violations) {
    os << "\n  violation[" << v.invariant << "]: " << v.message;
  }
  for (const ScenarioResult& f : fleets) {
    os << "\n  ";
    head_line(os, f);
  }
  return os.str();
}

void ScenarioResult::fold_fleets() {
  trace_hash = TraceRecorder::kFnvBasis;
  for (const ScenarioResult& f : fleets) {
    trace_hash = TraceRecorder::mix(trace_hash, f.trace_hash);
    trace_events += f.trace_events;
    sim_time = std::max(sim_time, f.sim_time);
    sched_events += f.sched_events;
    packets_sent += f.packets_sent;
    packets_delivered += f.packets_delivered;
    net_syscalls += f.net_syscalls;
    net_batched += f.net_batched;
    op_latency.merge(f.op_latency);
    for (const auto& v : f.violations) {
      violations.push_back({v.invariant, f.name + ": " + v.message});
    }
  }
  ops_completed = op_latency.count();
  op_p50_us = op_latency.percentile(50);
  op_p99_us = op_latency.percentile(99);
}

ScenarioBackend::ScenarioBackend(ScenarioSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      seed_(seed),
      router_(shard::ShardMap::uniform(spec_.initial_map_shards())),
      next_id_(spec_.shards, static_cast<NodeId>(spec_.initial_nodes + 1)) {
  SSR_ASSERT(spec_.shards >= 1, "a scenario runs at least one fleet");
  SSR_ASSERT(spec_.initial_map_shards() <= spec_.shards,
             "initial map wider than the fleets");
}

std::string ScenarioBackend::fleet_name(std::uint32_t s) const {
  if (spec_.shards == 1) return spec_.name;
  return spec_.name + "/shard" + std::to_string(s);
}

void ScenarioBackend::fail(std::string what) {
  if (failed_) return;
  failed_ = true;
  failure_ = std::move(what);
}

ScenarioResult ScenarioBackend::run() {
  bootstrap();
  for (const Phase& phase : spec_.phases) {
    if (failed_) break;
    for (std::uint32_t s = 0; s < spec_.shards; ++s) {
      fleet_trace(s).record(TraceKind::kPhaseStart, kNoNode,
                            TraceRecorder::digest(phase.name));
    }
    for (const Action& a : phase.actions) step(a);
  }
  return finish();
}

void ScenarioBackend::step(const Action& a) {
  if (failed_) return;
  for (std::uint32_t s = 0; s < spec_.shards; ++s) {
    fleet_trace(s).record(TraceKind::kActionApplied, kNoNode,
                          static_cast<std::uint64_t>(a.kind), a.digest());
  }
  apply(a);
}

ScenarioResult ScenarioBackend::fleet_result(std::uint32_t s) {
  ScenarioResult r;
  r.name = fleet_name(s);
  r.seed = seed_;
  r.violations = fleet_registry(s).check_all();
  r.ok = r.violations.empty();
  r.trace_hash = fleet_trace(s).hash();
  r.trace_events = fleet_trace(s).size();
  fill_fleet_result(s, r);
  r.ops_completed = r.op_latency.count();
  r.op_p50_us = r.op_latency.percentile(50);
  r.op_p99_us = r.op_latency.percentile(99);
  return r;
}

ScenarioResult ScenarioBackend::finish() {
  harvest();
  ScenarioResult r;
  if (spec_.shards == 1) {
    r = fleet_result(0);
  } else {
    for (std::uint32_t s = 0; s < spec_.shards; ++s) {
      r.fleets.push_back(fleet_result(s));
    }
    r.name = spec_.name;
    r.seed = seed_;
    r.fold_fleets();
  }
  r.failure = failure_;
  r.ok = !failed_ && r.violations.empty();
  fill_result(r);
  r.ops_attempted = ops_attempted_;
  r.ops_aborted_faulted = ops_aborted_faulted_;
  r.ops_aborted_healthy = ops_aborted_healthy_;
  r.ops_redirected = ops_redirected_;
  // The cross-fleet isolation invariant: an op may give up only when its
  // own fleet was faulted.
  if (ops_aborted_healthy_ != 0) {
    r.ok = false;
    if (r.failure.empty()) {
      r.failure = std::to_string(ops_aborted_healthy_) +
                  " op(s) aborted on healthy shards (isolation violated)";
    }
  }
  // Any failure, a missed await or an invariant violation, marks the run
  // failed (the process backend keeps its scratch directory then).
  if (!r.ok) failed_ = true;
  return r;
}

auto ScenarioBackend::snapshots(std::uint32_t s) {
  return alive(s) | std::views::transform(
                        [this, s](NodeId id) { return snapshot(s, id); });
}

bool ScenarioBackend::converged() {
  for (std::uint32_t s = 0; s < spec_.shards; ++s) {
    if (skipped(s)) continue;
    if (!node::common_config(snapshots(s))) return false;
  }
  return true;
}

template <class Pred>
bool ScenarioBackend::await_fleet(const Action& a, const char* failure,
                                  Pred met) {
  const std::uint32_t s = a.shard;
  if (wait_until(a.duration, [&] { return met(snapshots(s)); })) return true;
  fail(a, failure);
  return false;
}

void ScenarioBackend::apply(const Action& a) {
  // A queued map growth lands lazily inside the next keyed workload (the
  // "epoch change under load" path); any other action materializes it.
  if (a.kind != ActionKind::kKeyedIncrements &&
      a.kind != ActionKind::kGrowMap) {
    adopt_queued_growth();
  }
  SSR_ASSERT(a.shard < spec_.shards, "action aimed past the last fleet");
  const std::uint32_t s = a.shard;
  InvariantRegistry& registry = fleet_registry(s);
  TraceRecorder& trace = fleet_trace(s);
  // Every fault, churn and partition closes the closure window open on its
  // fleet (unmark_stable), so a window covers one fault-free stretch.
  switch (a.kind) {
    case ActionKind::kAddNodes:
      registry.unmark_stable();
      for (std::uint64_t i = 0; i < a.n && !failed_; ++i) {
        spawn(s, next_id_[s]++);
      }
      return;
    case ActionKind::kCrash:
      registry.unmark_stable();
      for (NodeId id : a.targets) crash(s, id);
      return;
    case ActionKind::kReboot:
      registry.unmark_stable();
      // Identifiers are never reused (paper, Section 2): a reboot is a
      // crash-stop plus a fresh processor taking the slot.
      for (NodeId id : a.targets) {
        crash(s, id);
        if (!failed_) spawn(s, next_id_[s]++);
      }
      return;
    case ActionKind::kSplitNetwork:
      registry.unmark_stable();
      cut(s, a.targets, a.group_b);
      return;
    case ActionKind::kHealNetwork:
      heal(s);
      return;
    case ActionKind::kCorruptRecsa: {
      registry.unmark_stable();
      // The corrupted records name ids of the fleet's alive set.
      const StateFault f{.kind = StateFault::Kind::kRecsa, .ids = alive(s)};
      for (NodeId id : targets_or_alive(a)) inject(s, id, f);
      return;
    }
    case ActionKind::kCorruptFd:
      registry.unmark_stable();
      for (NodeId id : targets_or_alive(a)) {
        inject(s, id, {.kind = StateFault::Kind::kFd});
      }
      return;
    case ActionKind::kSplitConfigState: {
      registry.unmark_stable();
      // The first half of the alive set (in id order) believes `targets`,
      // the rest believe `group_b`.
      const IdSet all = alive(s);
      std::size_t i = 0;
      for (NodeId id : all) {
        const bool first_half = i++ < all.size() / 2;
        inject(s, id, {.kind = StateFault::Kind::kConfig,
                       .ids = first_half ? a.targets : a.group_b});
      }
      return;
    }
    case ActionKind::kGarbageChannels:
      registry.unmark_stable();
      garbage(s, a.n);
      return;
    case ActionKind::kPlantExhaustedCounter:
      registry.unmark_stable();
      for (NodeId id : a.targets) {
        inject(s, id, {.kind = StateFault::Kind::kCounter, .n = a.n});
      }
      return;
    case ActionKind::kPlantRecmaFlags: {
      registry.unmark_stable();
      // The flags cover every entry of the fleet's alive set.
      const StateFault f{.kind = StateFault::Kind::kRecmaFlags,
                         .ids = alive(s), .n = a.n};
      for (NodeId id : a.targets) inject(s, id, f);
      return;
    }
    case ActionKind::kIncrementBurst:
      increments(s, targets_or_alive(a), a.n);
      harvest();
      return;
    case ActionKind::kShmemWrite:
      shmem(s, targets_or_alive(a), /*write=*/true, a.reg, a.n);
      return;
    case ActionKind::kShmemRead:
      shmem(s, targets_or_alive(a), /*write=*/false, a.reg, a.n);
      return;
    case ActionKind::kRunFor:
      run_for(a.duration);
      return;
    case ActionKind::kAwaitConverged: {
      // The one await that spans every fleet.
      if (!wait_until(a.duration, [this] { return converged(); })) {
        fail(a, "no convergence within the time budget");
        return;
      }
      for (std::uint32_t g = 0; g < spec_.shards; ++g) {
        if (skipped(g)) continue;
        fleet_trace(g).record(
            TraceKind::kConverged, kNoNode,
            TraceRecorder::digest(*node::common_config(snapshots(g))));
      }
      return;
    }
    case ActionKind::kAwaitVsStable:
      if (await_fleet(a, "VS layer did not stabilize",
                      [](auto&& alive) { return node::vs_stable(alive); })) {
        trace.record(TraceKind::kVsStable, kNoNode);
      }
      return;
    case ActionKind::kAwaitParticipants:
      await_fleet(a, "targets were not admitted as participants",
                  [&a](auto&& alive) {
                    return node::targets_admitted(alive, a.targets);
                  });
      return;
    case ActionKind::kAwaitConfigEqualsAlive:
      await_fleet(
          a, "configuration did not catch up with the alive set",
          [](auto&& alive) { return node::config_equals_alive(alive); });
      return;
    case ActionKind::kMarkStable:
      refresh();
      for (std::uint32_t g = 0; g < spec_.shards; ++g) {
        if (skipped(g)) continue;
        fleet_registry(g).mark_stable();
        fleet_trace(g).record(TraceKind::kStableMarked, kNoNode);
      }
      return;
    case ActionKind::kCrashAll:
      registry.unmark_stable();
      for (NodeId id : alive(s)) crash(s, id);
      return;
    case ActionKind::kAwaitQuiescent: {
      if (!alive(s).empty()) {
        registry.report("silence", false,
                        "await_quiescent requires every node crashed first");
        return;
      }
      const bool drained = drain(s, a.duration);
      registry.report("silence", drained,
                      "scheduler still holds live events after every node "
                      "crashed (silent stabilization violated)");
      trace.record(TraceKind::kQuiescent, kNoNode, drained ? 1 : 0);
      return;
    }
    case ActionKind::kPauseNodes:
      registry.unmark_stable();
      for (NodeId id : a.targets) pause(s, id);
      return;
    case ActionKind::kResumeNodes:
      for (NodeId id : a.targets) resume(s, id);
      return;
    case ActionKind::kKeyedIncrements:
      keyed_increments(a);
      harvest();
      return;
    case ActionKind::kGrowMap:
      // A queued growth adds one shard however many grow_maps precede its
      // adoption, so the map spans every fleet once its current width does.
      if (router_.map().shard_count() >= spec_.shards) {
        fail(a, "the map already spans every fleet");
        return;
      }
      growth_queued_ = true;
      return;
  }
}

void ScenarioBackend::keyed_increments(const Action& a) {
  for (std::uint64_t i = 0; i < a.n && !failed_; ++i) {
    shard::Router::Op op = router_.begin(a.reg + ":" + std::to_string(i));
    bool completed = false;
    for (;;) {
      // A client addresses the fleet's common configuration when it agrees
      // on one, else its alive set.
      router_.note_config(op.shard, node::common_config(snapshots(op.shard))
                                        .value_or(alive(op.shard)));
      const auto target = router_.target(op);
      if (target && keyed_attempt(op.shard, *target)) {
        completed = true;
        break;
      }
      if (failed_) break;
      // A failed attempt is when a queued epoch change becomes visible —
      // exactly the moment a real client would learn its map is stale.
      adopt_queued_growth();
      const shard::Router::Verdict v = router_.on_failure(op);
      if (v == shard::Router::Verdict::kGiveUp) break;
      if (v == shard::Router::Verdict::kRedirect) ++ops_redirected_;
    }
    ++ops_attempted_;
    if (completed) continue;
    if (stalled(op.shard)) {
      ++ops_aborted_faulted_;
    } else {
      ++ops_aborted_healthy_;
    }
  }
  // No attempt failed, so nothing pulled the queued map in: adopt it now
  // rather than letting it leak past the workload it was aimed at.
  adopt_queued_growth();
}

void ScenarioBackend::adopt_queued_growth() {
  if (!growth_queued_) return;
  growth_queued_ = false;
  router_.adopt(router_.map().with_shard_added());
}

}  // namespace ssr::scenario
