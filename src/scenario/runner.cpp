#include "scenario/runner.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ssr::scenario {

ScenarioRunner::ScenarioRunner(ScenarioSpec spec, std::uint64_t seed)
    : ScenarioBackend(std::move(spec), seed) {
  pool_at_start_ = wire::BufferPool::local().stats();
  const ScenarioSpec& sp = this->spec();
  fleets_.reserve(sp.shards);
  for (std::uint32_t s = 0; s < sp.shards; ++s) {
    harness::WorldConfig cfg;
    cfg.seed = sp.fleet_seed(seed, s);
    cfg.node.enable_vs = sp.enable_vs;
    cfg.channel.corrupt_probability = sp.corrupt_probability;
    cfg.adversary.enabled = sp.adversarial;
    if (sp.exhaust_bound != 0) {
      cfg.node.counter.exhaust_bound = sp.exhaust_bound;
    }
    Fleet& f = fleets_.emplace_back();
    f.world = std::make_unique<harness::World>(cfg);
    f.injector = std::make_unique<harness::FaultInjector>(
        *f.world, cfg.seed ^ 0xFA417ULL);
    f.registry = std::make_unique<InvariantRegistry>(*f.world);
    f.trace = std::make_unique<TraceRecorder>();
    f.trace->attach(*f.world);
    for (std::size_t i = 1; i <= sp.initial_nodes; ++i) {
      spawn(s, static_cast<NodeId>(i));
    }
  }
}

void ScenarioRunner::spawn(std::uint32_t s, NodeId id) {
  Fleet& f = fleets_[s];
  node::Node& n = f.world->add_node(id);
  if (spec().aggressive_policy || spec().adopt_joiners) {
    n.set_eval_conf(node::prediction_policy(n, spec().aggressive_policy,
                                            spec().adopt_joiners));
  }
  f.trace->attach_node(*f.world, id);
  f.registry->attach_node(id);
  f.trace->record(TraceKind::kNodeAdded, id);
}

void ScenarioRunner::crash(std::uint32_t s, NodeId id) {
  fleets_[s].world->crash(id);
  fleets_[s].trace->record(TraceKind::kNodeCrashed, id);
}

void ScenarioRunner::pause(std::uint32_t s, NodeId id) {
  fleets_[s].world->network().isolate(id);
  fleets_[s].trace->record(TraceKind::kNodePaused, id);
}

void ScenarioRunner::resume(std::uint32_t s, NodeId id) {
  fleets_[s].world->network().rejoin(id);
  fleets_[s].trace->record(TraceKind::kNodeResumed, id);
}

void ScenarioRunner::inject(std::uint32_t s, NodeId id, const StateFault& f) {
  harness::FaultInjector& injector = *fleets_[s].injector;
  node::Node& n = fleets_[s].world->node(id);
  switch (f.kind) {
    case StateFault::Kind::kRecsa:
      n.recsa().inject_corruption(injector.rng(), f.ids);
      return;
    case StateFault::Kind::kFd:
      injector.corrupt_fd(id);
      return;
    case StateFault::Kind::kConfig:
      n.recsa().inject_config(id, reconf::ConfigValue::set(f.ids));
      return;
    case StateFault::Kind::kCounter:
      injector.plant_exhausted_counter(id, f.n);
      return;
    case StateFault::Kind::kRecmaFlags:
      for (NodeId other : f.ids) {
        n.recma().inject_flags(other, (f.n & 1) != 0, (f.n & 2) != 0);
      }
      return;
  }
}

bool ScenarioRunner::stalled(std::uint32_t s) {
  const IdSet alive = fleets_[s].world->alive();
  const net::Network& net = fleets_[s].world->network();
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

void ScenarioRunner::fill_fleet_result(std::uint32_t s, ScenarioResult& r) {
  Fleet& f = fleets_[s];
  r.sim_time = f.world->scheduler().now();
  r.sched_events = f.world->scheduler().events_executed();
  r.op_latency = f.op_latency;
  f.world->network().for_each_channel(
      [&r](NodeId, NodeId, net::Channel& ch) {
        r.packets_sent += ch.stats().sent;
        r.packets_delivered += ch.stats().delivered;
      });
}

void ScenarioRunner::fill_result(ScenarioResult& r) {
  const wire::BufferPool::Stats& pool = wire::BufferPool::local().stats();
  r.pool_acquired = pool.acquired - pool_at_start_.acquired;
  r.pool_reused = pool.reused - pool_at_start_.reused;
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

void ScenarioRunner::increments(std::uint32_t s, const IdSet& targets,
                                std::uint64_t per_node) {
  Fleet& f = fleets_[s];
  // Sequential ops create real-time-ordered pairs, which is exactly what the
  // counter-order invariant (Theorem 4.6) constrains.
  for (NodeId id : targets) {
    if (!f.world->has_node(id) || f.world->node(id).crashed()) continue;
    for (std::uint64_t op = 0; op < per_node; ++op) {
      // A begin() can be refused while a previous operation drains, and a
      // begun operation can abort during reconfigurations — both are legal;
      // retry a bounded number of times.
      for (int attempt = 0; attempt < 12; ++attempt) {
        const Attempt r = increment_once(f, id, 30 * kSec, 120 * kSec);
        if (r == Attempt::kBusy || r == Attempt::kCompleted) break;
      }
    }
  }
}

bool ScenarioRunner::keyed_attempt(std::uint32_t s, NodeId target) {
  Fleet& f = fleets_[s];
  if (!f.world->has_node(target) || f.world->node(target).crashed()) {
    return false;
  }
  // A stalled fleet cannot complete anything; keep per-attempt patience
  // short there so the router's bounded give-up path doesn't dominate
  // virtual time. The router's verdicts are unaffected — it still burns its
  // full budget.
  const bool stuck = stalled(s);
  return increment_once(f, target, stuck ? 5 * kSec : 30 * kSec,
                        stuck ? 5 * kSec : 120 * kSec) == Attempt::kCompleted;
}

void ScenarioRunner::harvest() {
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

void ScenarioRunner::shmem(std::uint32_t s, const IdSet& targets, bool write,
                           const std::string& reg, std::uint64_t salt) {
  // As with increments: the service stores the callback, and an operation
  // can outlive this function, so completion state is heap-held and
  // captured by value.
  struct OpState {
    bool done = false;
    bool ok = false;
  };
  Fleet& f = fleets_[s];
  harness::World& world = *f.world;
  for (NodeId id : targets) {
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
              static_cast<std::uint8_t>((salt + id) >> (8 * i) & 0xFF));
        }
        begun = svc.write(reg, std::move(payload),
                          [st](bool w_ok, counter::Counter) {
                            st->ok = w_ok;
                            st->done = true;
                          });
      } else {
        begun = svc.read(reg, [st](bool r_ok, const wire::Bytes&,
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

bool ScenarioRunner::drain(std::uint32_t s, SimTime budget) {
  auto& sched = fleets_[s].world->scheduler();
  const SimTime deadline = sched.now() + budget;
  while (sched.now() < deadline && !sched.empty()) advance(10 * kMsec);
  return sched.empty();
}

ScenarioResult run_scenario(const ScenarioSpec& spec, std::uint64_t seed) {
  ScenarioRunner runner(spec, seed);
  return runner.run();
}

}  // namespace ssr::scenario
