#include "scenario/runner.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace ssr::scenario {

ScenarioRunner::ScenarioRunner(ScenarioSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      seed_(seed),
      keyed_(spec_.initial_map_shards(), spec_.shards) {
  SSR_ASSERT(spec_.shards >= 1, "a scenario runs at least one fleet");
  pool_at_start_ = wire::BufferPool::local().stats();
  fleets_.reserve(spec_.shards);
  for (std::uint32_t s = 0; s < spec_.shards; ++s) {
    harness::WorldConfig cfg;
    cfg.seed = spec_.fleet_seed(seed, s);
    cfg.node.enable_vs = spec_.enable_vs;
    cfg.channel.corrupt_probability = spec_.corrupt_probability;
    cfg.adversary.enabled = spec_.adversarial;
    if (spec_.exhaust_bound != 0) {
      cfg.node.counter.exhaust_bound = spec_.exhaust_bound;
    }
    Fleet& f = fleets_.emplace_back();
    f.world = std::make_unique<harness::World>(cfg);
    f.injector = std::make_unique<harness::FaultInjector>(
        *f.world, cfg.seed ^ 0xFA417ULL);
    f.registry = std::make_unique<InvariantRegistry>(*f.world);
    f.trace = std::make_unique<TraceRecorder>();
    f.trace->attach(*f.world);
    for (std::size_t i = 0; i < spec_.initial_nodes; ++i) add_fresh_node(f);
  }
}

NodeId ScenarioRunner::add_fresh_node(Fleet& f) {
  const NodeId id = f.next_id++;
  node::Node& n = f.world->add_node(id);
  if (spec_.aggressive_policy || spec_.adopt_joiners) {
    n.set_eval_conf(node::prediction_policy(n, spec_.aggressive_policy,
                                            spec_.adopt_joiners));
  }
  f.trace->attach_node(*f.world, id);
  f.registry->attach_node(id);
  f.trace->record(TraceKind::kNodeAdded, id);
  return id;
}

void ScenarioRunner::fail(const Action& a, const std::string& detail) {
  if (failed_) return;
  failed_ = true;
  std::ostringstream os;
  os << to_string(a.kind) << ": " << detail;
  failure_ = os.str();
}

IdSet ScenarioRunner::targets_or_alive(Fleet& f, const Action& a) const {
  return a.targets.empty() ? f.world->alive() : a.targets;
}

bool ScenarioRunner::stalled(const Fleet& f) const {
  const IdSet alive = f.world->alive();
  const net::Network& net = f.world->network();
  return !alive.empty() &&
         std::all_of(alive.begin(), alive.end(),
                     [&net](NodeId id) { return net.isolated(id); });
}

void ScenarioRunner::advance(SimTime d) {
  for (SimTime done = 0; done < d;) {
    const SimTime step = std::min(kSlice, d - done);
    for (Fleet& f : fleets_) f.world->run_for(step);
    done += step;
  }
}

ScenarioResult ScenarioRunner::fleet_result(Fleet& f, std::string name) const {
  ScenarioResult r;
  r.name = std::move(name);
  r.seed = seed_;
  r.violations = f.registry->check_all();
  r.ok = r.violations.empty();
  r.trace_hash = f.trace->hash();
  r.trace_events = f.trace->size();
  r.sim_time = f.world->scheduler().now();
  r.sched_events = f.world->scheduler().events_executed();
  r.ops_completed = f.op_latency.count();
  r.op_p50_us = f.op_latency.percentile(50);
  r.op_p99_us = f.op_latency.percentile(99);
  r.op_latency = f.op_latency;
  f.world->network().for_each_channel(
      [&r](NodeId, NodeId, net::Channel& ch) {
        r.packets_sent += ch.stats().sent;
        r.packets_delivered += ch.stats().delivered;
      });
  return r;
}

ScenarioResult ScenarioRunner::run() {
  for (const Phase& phase : spec_.phases) {
    if (failed_) break;
    for (Fleet& f : fleets_) {
      f.trace->record(TraceKind::kPhaseStart, kNoNode,
                      TraceRecorder::digest(phase.name));
    }
    for (const Action& a : phase.actions) {
      if (failed_) break;
      for (Fleet& f : fleets_) {
        f.trace->record(TraceKind::kActionApplied, kNoNode,
                        static_cast<std::uint64_t>(a.kind), a.digest());
      }
      apply(a);
    }
  }

  harvest_increments();

  ScenarioResult r;
  if (fleets_.size() == 1) {
    r = fleet_result(fleets_.front(), spec_.name);
  } else {
    for (std::size_t s = 0; s < fleets_.size(); ++s) {
      r.fleets.push_back(
          fleet_result(fleets_[s], spec_.name + "/shard" + std::to_string(s)));
    }
    r.name = spec_.name;
    r.seed = seed_;
    r.fold_fleets();
  }
  r.failure = failure_;
  r.ok = !failed_ && r.violations.empty();
  const wire::BufferPool::Stats& pool = wire::BufferPool::local().stats();
  r.pool_acquired = pool.acquired - pool_at_start_.acquired;
  r.pool_reused = pool.reused - pool_at_start_.reused;
  keyed_.report(r);
  return r;
}

void ScenarioRunner::apply(const Action& a) {
  // A queued map growth lands lazily inside the next keyed workload (the
  // "epoch change under load" path); any other action materializes it.
  if (a.kind != ActionKind::kKeyedIncrements &&
      a.kind != ActionKind::kGrowMap) {
    keyed_.adopt_queued_growth();
  }
  SSR_ASSERT(a.shard < fleets_.size(), "action aimed past the last fleet");
  Fleet& f = fleets_[a.shard];
  harness::World& world = *f.world;
  InvariantRegistry& registry = *f.registry;
  TraceRecorder& trace = *f.trace;
  switch (a.kind) {
    case ActionKind::kAddNodes: {
      registry.unmark_stable();
      for (std::uint64_t i = 0; i < a.n; ++i) add_fresh_node(f);
      return;
    }
    case ActionKind::kCrash: {
      registry.unmark_stable();
      for (NodeId id : a.targets) {
        world.crash(id);
        trace.record(TraceKind::kNodeCrashed, id);
      }
      return;
    }
    case ActionKind::kReboot: {
      registry.unmark_stable();
      // Identifiers are never reused (paper, Section 2): a reboot is a
      // crash-stop plus a fresh processor taking the slot.
      for (NodeId id : a.targets) {
        world.crash(id);
        trace.record(TraceKind::kNodeCrashed, id);
        add_fresh_node(f);
      }
      return;
    }
    case ActionKind::kSplitNetwork:
      registry.unmark_stable();
      world.network().split(a.targets, a.group_b);
      return;
    case ActionKind::kHealNetwork:
      world.network().heal();
      return;
    case ActionKind::kCorruptRecsa:
      registry.unmark_stable();
      for (NodeId id : targets_or_alive(f, a)) f.injector->corrupt_recsa(id);
      return;
    case ActionKind::kCorruptFd:
      registry.unmark_stable();
      for (NodeId id : targets_or_alive(f, a)) f.injector->corrupt_fd(id);
      return;
    case ActionKind::kSplitConfigState:
      registry.unmark_stable();
      f.injector->split_config(a.targets, a.group_b);
      return;
    case ActionKind::kGarbageChannels:
      registry.unmark_stable();
      f.injector->fill_channels_with_garbage(a.n);
      return;
    case ActionKind::kPlantExhaustedCounter:
      registry.unmark_stable();
      for (NodeId id : a.targets) f.injector->plant_exhausted_counter(id, a.n);
      return;
    case ActionKind::kPlantRecmaFlags:
      registry.unmark_stable();
      for (NodeId id : a.targets) {
        f.injector->plant_recma_flags(id, (a.n & 1) != 0, (a.n & 2) != 0);
      }
      return;
    case ActionKind::kIncrementBurst:
      do_increment_burst(f, a);
      return;
    case ActionKind::kShmemWrite:
      do_shmem(f, a, /*write=*/true);
      return;
    case ActionKind::kShmemRead:
      do_shmem(f, a, /*write=*/false);
      return;
    case ActionKind::kRunFor:
      advance(a.duration);
      return;
    case ActionKind::kAwaitConverged: {
      auto converged = [&] {
        for (const Fleet& g : fleets_) {
          if (!skipped(g) && !g.world->converged()) return false;
        }
        return true;
      };
      if (!await(a.duration, converged)) {
        fail(a, "no convergence within the time budget");
        return;
      }
      for (Fleet& g : fleets_) {
        if (skipped(g)) continue;
        g.trace->record(TraceKind::kConverged, kNoNode,
                        TraceRecorder::digest(*g.world->common_config()));
      }
      return;
    }
    case ActionKind::kAwaitVsStable: {
      if (!await(a.duration, [&] { return world.vs_stable(); })) {
        fail(a, "VS layer did not stabilize");
        return;
      }
      trace.record(TraceKind::kVsStable, kNoNode);
      return;
    }
    case ActionKind::kAwaitParticipants: {
      auto all_part = [&] {
        for (NodeId id : a.targets) {
          if (!world.node(id).recsa().is_participant()) return false;
        }
        return true;
      };
      if (!await(a.duration, all_part)) {
        fail(a, "targets were not admitted as participants");
      }
      return;
    }
    case ActionKind::kAwaitConfigEqualsAlive: {
      auto caught_up = [&] {
        auto c = world.common_config();
        return c && *c == world.alive();
      };
      if (!await(a.duration, caught_up)) {
        fail(a, "configuration did not catch up with the alive set");
      }
      return;
    }
    case ActionKind::kMarkStable:
      for (Fleet& g : fleets_) {
        if (skipped(g)) continue;
        g.registry->mark_stable();
        g.trace->record(TraceKind::kStableMarked, kNoNode);
      }
      return;
    case ActionKind::kCrashAll: {
      registry.unmark_stable();
      for (NodeId id : world.alive()) {
        world.crash(id);
        trace.record(TraceKind::kNodeCrashed, id);
      }
      return;
    }
    case ActionKind::kAwaitQuiescent:
      do_await_quiescent(f, a);
      return;
    case ActionKind::kPauseNodes: {
      // The closest fabric analog of SIGSTOP: a stopped process takes no
      // steps and answers nothing, so from its peers' point of view it is
      // unreachable until resumed.
      registry.unmark_stable();
      for (NodeId id : a.targets) {
        world.network().isolate(id);
        trace.record(TraceKind::kNodePaused, id);
      }
      return;
    }
    case ActionKind::kResumeNodes: {
      for (NodeId id : a.targets) {
        world.network().rejoin(id);
        trace.record(TraceKind::kNodeResumed, id);
      }
      return;
    }
    case ActionKind::kKeyedIncrements:
      do_keyed_increments(a);
      return;
    case ActionKind::kGrowMap:
      if (!keyed_.queue_growth()) fail(a, "the map already spans every fleet");
      return;
  }
}

ScenarioRunner::Attempt ScenarioRunner::increment_once(Fleet& f, NodeId id,
                                                       SimTime busy_budget,
                                                       SimTime done_budget) {
  auto& client = f.world->node(id).increment();
  if (!await(busy_budget, [&] { return !client.busy(); })) {
    return Attempt::kBusy;
  }
  // Fresh state per attempt, so a late completion of a timed-out attempt
  // never bleeds into the next one.
  auto st = std::make_shared<PendingIncrement>();
  st->started = f.world->scheduler().now();
  if (!client.begin([st](std::optional<counter::Counter> c) {
        st->got = std::move(c);
        st->done = true;
      })) {
    return Attempt::kFailed;
  }
  await(done_budget, [&] { return st->done; }, 5 * kMsec);
  if (st->done && st->got) {
    record_increment(f, id, *st);
    return Attempt::kCompleted;
  }
  if (st->done) {
    f.trace->record(TraceKind::kIncrementDone, id, 0, 0);
  } else {
    f.outstanding.emplace_back(id, st);
  }
  return Attempt::kFailed;
}

void ScenarioRunner::record_increment(Fleet& f, NodeId id,
                                      const PendingIncrement& st) {
  const SimTime now = f.world->scheduler().now();
  f.registry->counter_order().record(st.started, now, *st.got);
  f.op_latency.record(now - st.started);
  f.trace->record(TraceKind::kIncrementDone, id, 1, st.got->seqn);
}

void ScenarioRunner::do_increment_burst(Fleet& f, const Action& a) {
  // Sequential ops create real-time-ordered pairs, which is exactly what the
  // counter-order invariant (Theorem 4.6) constrains.
  for (NodeId id : targets_or_alive(f, a)) {
    if (!f.world->has_node(id) || f.world->node(id).crashed()) continue;
    for (std::uint64_t op = 0; op < a.n; ++op) {
      // A begin() can be refused while a previous operation drains, and a
      // begun operation can abort during reconfigurations — both are legal;
      // retry a bounded number of times.
      for (int attempt = 0; attempt < 12; ++attempt) {
        const Attempt r = increment_once(f, id, 30 * kSec, 120 * kSec);
        if (r == Attempt::kBusy || r == Attempt::kCompleted) break;
      }
    }
  }
  harvest_increments();
}

void ScenarioRunner::do_keyed_increments(const Action& a) {
  KeyedWorkload::Fleets fleets;
  fleets.membership = [this](std::uint32_t s) {
    const harness::World& world = *fleets_[s].world;
    const auto common = world.common_config();
    return common ? *common : world.alive();
  };
  fleets.attempt = [this](std::uint32_t s, NodeId target) {
    Fleet& f = fleets_[s];
    if (!f.world->has_node(target) || f.world->node(target).crashed()) {
      return false;
    }
    // A stalled fleet cannot complete anything; the runner knows that (it
    // injected the stall) and keeps per-attempt patience short so the
    // router's bounded give-up path doesn't dominate virtual time. The
    // router's verdicts are unaffected — it still burns its full budget.
    const bool stuck = stalled(f);
    return increment_once(f, target, stuck ? 5 * kSec : 30 * kSec,
                          stuck ? 5 * kSec : 120 * kSec) ==
           Attempt::kCompleted;
  };
  fleets.stalled = [this](std::uint32_t s) { return stalled(fleets_[s]); };
  fleets.failed = [this] { return failed_; };
  keyed_.run(a, fleets);
  harvest_increments();
}

void ScenarioRunner::harvest_increments() {
  // Records attempts that completed after their await timed out (possibly
  // phases later). Observing the finish late only widens the [started,
  // finished] interval, which can never manufacture a false real-time-
  // ordered pair. Recorded entries are removed; still-pending ones stay for
  // the next harvest (every workload, and once more before check_all()).
  for (Fleet& f : fleets_) {
    std::erase_if(f.outstanding, [&](const auto& entry) {
      const auto& [id, st] = entry;
      if (!st->done) return false;
      if (st->got) record_increment(f, id, *st);
      return true;
    });
  }
}

void ScenarioRunner::do_shmem(Fleet& f, const Action& a, bool write) {
  // As with increments: the service stores the callback, and an operation
  // can outlive this function, so completion state is heap-held and
  // captured by value.
  struct OpState {
    bool done = false;
    bool ok = false;
  };
  harness::World& world = *f.world;
  for (NodeId id : targets_or_alive(f, a)) {
    if (!world.has_node(id) || world.node(id).crashed()) continue;
    auto& svc = world.node(id).registers();
    bool succeeded = false;
    for (int attempt = 0; attempt < 12 && !succeeded; ++attempt) {
      if (!await(30 * kSec, [&] { return !svc.busy(); })) break;
      auto st = std::make_shared<OpState>();
      const SimTime op_started = world.scheduler().now();
      bool begun;
      if (write) {
        wire::Bytes payload;
        for (int i = 0; i < 8; ++i) {
          payload.push_back(
              static_cast<std::uint8_t>((a.n + id) >> (8 * i) & 0xFF));
        }
        begun = svc.write(a.reg, std::move(payload),
                          [st](bool w_ok, counter::Counter) {
                            st->ok = w_ok;
                            st->done = true;
                          });
      } else {
        begun = svc.read(a.reg, [st](bool r_ok, const wire::Bytes&,
                                     counter::Counter) {
          st->ok = r_ok;
          st->done = true;
        });
      }
      if (!begun) continue;
      await(160 * kSec, [&] { return st->done; }, 5 * kMsec);
      succeeded = st->done && st->ok;
      if (succeeded) {
        f.op_latency.record(world.scheduler().now() - op_started);
      }
    }
    f.trace->record(TraceKind::kShmemOpDone, id, succeeded ? 1 : 0,
                    write ? 1 : 0);
  }
}

void ScenarioRunner::do_await_quiescent(Fleet& f, const Action& a) {
  if (!f.world->alive().empty()) {
    f.registry->report("silence", false,
                       "await_quiescent requires every node crashed first");
    return;
  }
  auto& sched = f.world->scheduler();
  const SimTime deadline = sched.now() + a.duration;
  while (sched.now() < deadline && !sched.empty()) advance(10 * kMsec);
  const bool drained = sched.empty();
  f.registry->report("silence", drained,
                     "scheduler still holds live events after every node "
                     "crashed (silent stabilization violated)");
  f.trace->record(TraceKind::kQuiescent, kNoNode, drained ? 1 : 0);
}

ScenarioResult run_scenario(const ScenarioSpec& spec, std::uint64_t seed) {
  ScenarioRunner runner(spec, seed);
  return runner.run();
}

}  // namespace ssr::scenario
