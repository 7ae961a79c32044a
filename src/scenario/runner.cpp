#include "scenario/runner.hpp"

namespace ssr::scenario {

namespace {

harness::WorldConfig world_config(const ScenarioSpec& spec,
                                  std::uint64_t seed) {
  harness::WorldConfig cfg;
  cfg.seed = seed;
  cfg.node.enable_vs = spec.enable_vs;
  cfg.channel.corrupt_probability = spec.corrupt_probability;
  cfg.adversary.enabled = spec.adversarial;
  if (spec.exhaust_bound != 0) {
    cfg.node.counter.exhaust_bound = spec.exhaust_bound;
  }
  return cfg;
}

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioSpec spec, std::uint64_t seed)
    : ScenarioBackend(std::move(spec), seed),
      pool_at_start_(wire::BufferPool::local().stats()),
      world_(world_config(this->spec(), seed)),
      injector_(world_, seed ^ 0xFA417ULL),
      registry_(world_) {
  trace_.attach(world_);
  for (std::size_t i = 1; i <= this->spec().initial_nodes; ++i) {
    spawn(static_cast<NodeId>(i));
  }
}

void ScenarioRunner::spawn(NodeId id) {
  node::Node& n = world_.add_node(id);
  if (spec().aggressive_policy || spec().adopt_joiners) {
    n.set_eval_conf(node::prediction_policy(n, spec().aggressive_policy,
                                            spec().adopt_joiners));
  }
  trace_.attach_node(world_, id);
  registry_.attach_node(id);
  trace_.record(TraceKind::kNodeAdded, id);
}

void ScenarioRunner::crash(NodeId id) {
  world_.crash(id);
  trace_.record(TraceKind::kNodeCrashed, id);
}

void ScenarioRunner::pause(NodeId id) {
  world_.network().isolate(id);
  trace_.record(TraceKind::kNodePaused, id);
}

void ScenarioRunner::resume(NodeId id) {
  world_.network().rejoin(id);
  trace_.record(TraceKind::kNodeResumed, id);
}

void ScenarioRunner::inject(NodeId id, const StateFault& f) {
  node::Node& n = world_.node(id);
  switch (f.kind) {
    case StateFault::Kind::kRecsa:
      n.recsa().inject_corruption(injector_.rng(), f.ids);
      return;
    case StateFault::Kind::kFd:
      injector_.corrupt_fd(id);
      return;
    case StateFault::Kind::kConfig:
      n.recsa().inject_config(id, reconf::ConfigValue::set(f.ids));
      return;
    case StateFault::Kind::kCounter:
      injector_.plant_exhausted_counter(id, f.n);
      return;
    case StateFault::Kind::kRecmaFlags:
      for (NodeId other : f.ids) {
        n.recma().inject_flags(other, (f.n & 1) != 0, (f.n & 2) != 0);
      }
      return;
  }
}

void ScenarioRunner::fill_result(ScenarioResult& r) {
  r.sim_time = world_.scheduler().now();
  r.sched_events = world_.scheduler().events_executed();
  r.op_latency = op_latency_;
  r.pool_acquired =
      wire::BufferPool::local().stats().acquired - pool_at_start_.acquired;
}

ScenarioRunner::Attempt ScenarioRunner::increment_once(NodeId id,
                                                       SimTime busy_budget,
                                                       SimTime done_budget) {
  auto& client = world_.node(id).increment();
  if (!await(busy_budget, [&] { return !client.busy(); })) {
    return Attempt::kBusy;
  }
  // Fresh state per attempt, so a late completion of a timed-out attempt
  // never bleeds into the next one.
  auto st = std::make_shared<PendingIncrement>();
  st->started = world_.scheduler().now();
  if (!client.begin([st](std::optional<counter::Counter> c) {
        st->got = std::move(c);
        st->done = true;
      })) {
    return Attempt::kFailed;
  }
  await(done_budget, [&] { return st->done; }, 5 * kMsec);
  if (st->done && st->got) {
    record_increment(id, *st);
    return Attempt::kCompleted;
  }
  if (st->done) {
    trace_.record(TraceKind::kIncrementDone, id, 0, 0);
  } else {
    outstanding_.emplace_back(id, st);
  }
  return Attempt::kFailed;
}

void ScenarioRunner::record_increment(NodeId id, const PendingIncrement& st) {
  const SimTime now = world_.scheduler().now();
  registry_.counter_order().record(st.started, now, *st.got);
  op_latency_.record(now - st.started);
  trace_.record(TraceKind::kIncrementDone, id, 1, st.got->seqn);
}

void ScenarioRunner::increments(const IdSet& targets, std::uint64_t per_node) {
  // Sequential ops create real-time-ordered pairs, which is exactly what the
  // counter-order invariant (Theorem 4.6) constrains.
  for (NodeId id : targets) {
    if (!world_.has_node(id) || world_.node(id).crashed()) continue;
    for (std::uint64_t op = 0; op < per_node; ++op) {
      // A begin() can be refused while a previous operation drains, and a
      // begun operation can abort during reconfigurations — both are legal;
      // retry a bounded number of times.
      for (int attempt = 0; attempt < 12; ++attempt) {
        const Attempt r = increment_once(id, 30 * kSec, 120 * kSec);
        if (r == Attempt::kBusy || r == Attempt::kCompleted) break;
      }
    }
  }
}

void ScenarioRunner::harvest() {
  // Records attempts that completed after their await timed out (possibly
  // phases later). Observing the finish late only widens the [started,
  // finished] interval, which can never manufacture a false real-time-
  // ordered pair. Recorded entries are removed; still-pending ones stay for
  // the next harvest (every workload, and once more before check_all()).
  std::erase_if(outstanding_, [&](const auto& entry) {
    const auto& [id, st] = entry;
    if (!st->done) return false;
    if (st->got) record_increment(id, *st);
    return true;
  });
}

void ScenarioRunner::shmem(const IdSet& targets, bool write,
                           const std::string& reg, std::uint64_t salt) {
  // As with increments: the service stores the callback, and an operation
  // can outlive this function, so completion state is heap-held and
  // captured by value.
  struct OpState {
    bool done = false;
    bool ok = false;
  };
  for (NodeId id : targets) {
    if (!world_.has_node(id) || world_.node(id).crashed()) continue;
    auto& svc = world_.node(id).registers();
    bool succeeded = false;
    for (int attempt = 0; attempt < 12 && !succeeded; ++attempt) {
      if (!await(30 * kSec, [&] { return !svc.busy(); })) break;
      auto st = std::make_shared<OpState>();
      const SimTime op_started = world_.scheduler().now();
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
      if (succeeded) op_latency_.record(world_.scheduler().now() - op_started);
    }
    trace_.record(TraceKind::kShmemOpDone, id, succeeded ? 1 : 0,
                  write ? 1 : 0);
  }
}

bool ScenarioRunner::drain(SimTime budget) {
  auto& sched = world_.scheduler();
  const SimTime deadline = sched.now() + budget;
  while (sched.now() < deadline && !sched.empty()) world_.run_for(10 * kMsec);
  return sched.empty();
}

ScenarioResult run_scenario(const ScenarioSpec& spec, std::uint64_t seed) {
  ScenarioRunner runner(spec, seed);
  return runner.run();
}

}  // namespace ssr::scenario
