// steady-9, smr-openloop and the four fault workloads: the simulator
// workloads.
//
// A run does a fixed amount of work for its --seconds value: a window of
// virtual time (steady-9, smr-openloop) or a number of fault seeds, never
// "as much as fits in the wall time". An untraced run measures that work,
// sets further clusters up at fixed points of the window (setup_s and
// converge_ms are medians over the set-ups), and repeats the first set-up or
// fault seed to check that its work counts reproduce exactly. A traced run
// (--trace 1) does half the work twice on the same seeds, untraced and
// traced, fails on any difference in the deterministic counts, and reports
// the per-layer metrics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>

#include "sim.hpp"

namespace ssr::bench {
namespace {

/// Measured windows advance in chunks of virtual time; cpu_ms_per_node_s is
/// a low percentile over chunks, which discards chunks a noisy neighbour
/// slowed.
constexpr SimTime kChunk = 200 * kMsec;
constexpr std::size_t kSetUps = 20;
constexpr SimTime kDrainBudget = 60 * kSec;
constexpr SimTime kSmokeWindow = 3 * kSec;
/// Calls per node for the isolated tick timings.
constexpr int kTickReps = 2000;

/// Closure window after each recovery, and the length of the partition.
constexpr SimTime kSettle = 2 * kSec;
constexpr SimTime kPartitionFor = 5 * kSec;
constexpr std::size_t kFaultNodes = 5;
constexpr std::size_t kSmokeSeeds = 2;

/// Work and cost of one or more stretches of execution.
struct Window {
  std::size_t chunks = 0;
  SimTime sim = 0;
  double wall_ns = 0;
  double node_seconds = 0;
  std::vector<double> cpu_ms_per_node_s;  // one per chunk (or per seed)
  Totals work;  // summed deltas of every stretch
  Totals end;   // absolute totals when the last stretch ended
  std::uint64_t allocs = 0;
  std::uint64_t pool_acquired = 0;
  std::uint64_t pool_reused = 0;

  double sim_rate() const {
    return frac(static_cast<double>(sim) / kSec, wall_ns / 1e9);
  }
};

/// Snapshot taken when a stretch starts; finish() adds it to a Window.
class Stopwatch {
 public:
  explicit Stopwatch(Cluster& c)
      : c_(c),
        start_(c.totals()),
        pool0_(wire::BufferPool::local().stats()),
        allocs0_(allocations()),
        cpu0_(cpu_ns()),
        ns0_(c.node_seconds()),
        sim0_(c.now()),
        wall0_(wall_ns()) {}

  double cpu_ms_per_node_s() const {
    return frac(static_cast<double>(cpu_ns() - cpu0_) / 1e6,
                c_.node_seconds() - ns0_);
  }

  void finish(Window& w) const {
    w.wall_ns += static_cast<double>(wall_ns() - wall0_);
    w.sim += c_.now() - sim0_;
    w.node_seconds += c_.node_seconds() - ns0_;
    w.allocs += allocations() - allocs0_;
    const wire::BufferPool::Stats& pool = wire::BufferPool::local().stats();
    w.pool_acquired += pool.acquired - pool0_.acquired;
    w.pool_reused += pool.reused - pool0_.reused;
    w.end = c_.totals();
    const Totals d = w.end.minus(start_);
    for (std::size_t i = 0; i < Totals::kNumFields; ++i) w.work.v[i] += d.v[i];
  }

 private:
  Cluster& c_;
  Totals start_;
  wire::BufferPool::Stats pool0_;
  std::uint64_t allocs0_;
  std::uint64_t cpu0_;
  double ns0_;
  SimTime sim0_;
  std::uint64_t wall0_;
};

/// `per_second` units of work for each --seconds (at least one), or
/// `smoke` in a smoke run. With `half`, half of it (a traced run's passes).
std::size_t work_units(const Args& a, double per_second, std::size_t smoke,
                       bool half = false) {
  const double n =
      a.smoke ? static_cast<double>(smoke) : std::round(a.seconds * per_second);
  return std::max<std::size_t>(1,
                               static_cast<std::size_t>(half ? n / 2 : n));
}

/// Called after each chunk with the number of chunks run so far.
using Between = std::function<void(std::size_t chunks)>;

Window run_window(Cluster& c, std::size_t chunks, const Between& between) {
  Window w;
  Stopwatch sw(c);
  while (w.chunks < chunks) {
    Stopwatch chunk(c);
    c.advance(kChunk);
    w.cpu_ms_per_node_s.push_back(chunk.cpu_ms_per_node_s());
    ++w.chunks;
    if (between) between(w.chunks);
  }
  sw.finish(w);
  return w;
}

/// Layer metrics that come from the deterministic counts of a window.
void count_layers(Report& r, const Window& w, std::size_t nodes) {
  const Totals& d = w.work;
  const double node_s = w.node_seconds;
  const double sent = static_cast<double>(d[Totals::kSent]);
  r.set("sim.events_per_node_s", frac(d[Totals::kEvents], node_s), "1/s");
  r.set("sim.wall_ns_per_event", frac(w.wall_ns, d[Totals::kEvents]), "ns");
  r.set("net.pkts_sent_per_node_s", frac(sent, node_s), "1/s");
  r.set("net.pkts_delivered_per_node_s", frac(d[Totals::kDelivered], node_s),
        "1/s");
  r.set("net.loss_frac", frac(d[Totals::kLost], sent), "frac");
  r.set("net.overflow_frac", frac(d[Totals::kOverflowed], sent), "frac");
  r.set("net.dup_frac", frac(d[Totals::kDuplicated], sent), "frac");
  r.set("wire.pool_hit_frac", frac(w.pool_reused, w.pool_acquired), "frac");
  r.set("wire.allocs_per_event", frac(w.allocs, d[Totals::kEvents]), "count");
  const double links = static_cast<double>(nodes * (nodes - 1));
  r.set("dlink.rounds_per_link_s",
        frac(d[Totals::kRounds], links * static_cast<double>(w.sim) / kSec),
        "1/s");
  r.set("dlink.pkts_per_round", frac(sent, d[Totals::kRounds]), "count");
  r.set("dlink.fresh_frac",
        frac(d[Totals::kFreshFrames], d[Totals::kDelivered]), "frac");
  r.set("label.exchanges_per_node_s", frac(d[Totals::kLabelExchanges], node_s),
        "1/s");
  r.set("vs.rounds_per_s", frac(d[Totals::kVsRounds], node_s), "1/s");
  r.set("vs.view_changes", static_cast<double>(d[Totals::kVsViews]), "count");
  r.set("counter.inc_abort_frac",
        frac(d[Totals::kIncAborted],
             d[Totals::kIncAborted] + d[Totals::kIncCompleted]),
        "frac");
  r.set("shmem.abort_frac",
        frac(d[Totals::kShmemAborted],
             d[Totals::kShmemAborted] + d[Totals::kShmemDone]),
        "frac");
}

/// Layer metrics timed in the traced pass: rx path, isolated ticks, replay.
void timed_layers(Report& r, Cluster& c, const RxTap& rx, Tracer& tracer,
                  const Window& traced, std::size_t nodes, bool smoke) {
  const TickCosts t = time_ticks(c, smoke ? kTickReps / 10 : kTickReps);
  const ReplayCosts rp = replay(rx.sample, c.world().config().channel);
  const std::pair<const char*, double> ticks[] = {
      {"reconf.recsa_tick_ns", t.recsa}, {"reconf.recma_tick_ns", t.recma},
      {"reconf.join_tick_ns", t.join},   {"label.tick_ns", t.label},
      {"counter.tick_ns", t.counter},    {"counter.inc_tick_ns", t.inc},
      {"shmem.tick_ns", t.shmem},        {"fd.trusted_ns", t.fd_trusted},
      {"node.tick_ns", t.node()}};
  for (const auto& [name, ns] : ticks) {
    r.set(name, ns, "ns");
    tracer.aggregate(std::string("isolated.") + name,
                     static_cast<std::uint64_t>(ns));
  }
  // A share, not a time: workloads with the VS layer off have no VS tick.
  tracer.aggregate("isolated.vs.tick_ns", static_cast<std::uint64_t>(t.vs));
  r.set("vs.tick_share", frac(t.vs, t.node()), "frac");
  tracer.aggregate("dlink.rx", rx.ns, rx.packets);
  r.set("net.channel_send_ns", rp.channel_send_ns, "ns");
  r.set("wire.frame_decode_ns", rp.frame_decode_ns, "ns");
  r.set("wire.bytes_per_pkt", frac(rx.bytes, rx.packets), "B");
  r.set("dlink.rx_ns_per_pkt", frac(rx.ns, rx.packets), "ns");
  r.set("dlink.rx_share", frac(rx.ns, traced.wall_ns), "frac");

  const double tick_ns =
      t.node() *
      expected_ticks(c.world().config().node.tick_period, nodes, traced.sim);
  r.set("node.tick_share", frac(tick_ns, traced.wall_ns), "frac");
  const Tracer::Agg poll = tracer.agg("harness.poll");
  const Tracer::Agg calls = tracer.agg("client.call");
  r.set("harness.converged_ns",
        poll.count != 0 ? frac(poll.ns, poll.count) : t.converged, "ns");
  r.set("harness.poll_share", frac(poll.ns, traced.wall_ns), "frac");
  const double covered = static_cast<double>(rx.ns + calls.ns + poll.ns) +
                         tick_ns;
  r.set("sim.other_share", std::max(0.0, 1.0 - frac(covered, traced.wall_ns)),
        "frac");
}

void check_registry(Report& r, Cluster& c, const std::string& what) {
  for (const auto& v : c.registry().check_all()) {
    r.fail(what + ": " + v.invariant + ": " + v.message);
  }
}

void check_same(Report& r, const Totals& got, const Totals& want,
                const std::string& what) {
  if (const std::string d = got.diff(want); !d.empty()) r.fail(what + ": " + d);
}

// -- steady-9 and smr-openloop ------------------------------------------------

struct OpWorkload {
  std::size_t nodes;
  bool vs;
  double rate;  // client operations per virtual second, whole cluster; 0: none
  OpDriver::Mix mix;
  double sim_per_second;  // virtual seconds of window per --seconds
};

struct OpPass {
  Window win;
  std::vector<double> latency_ms, wait_ms, inc_service_ms, write_ms, read_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t closure_changes = 0;
};

/// One window of `chunks`: open-loop arrivals during the window (when the
/// workload has client operations), then a drain outside the measurement
/// until every queued operation finished. The window's closure is checked
/// through the registry.
OpPass op_pass(Report& r, Cluster& c, const OpWorkload& w, const Args& a,
               std::size_t chunks, Tracer* tracer,
               const Between& between = {}) {
  OpPass p;
  c.registry().mark_stable();
  const SimTime window_start = c.now();
  const std::uint64_t wall_start = wall_ns();
  std::unique_ptr<OpDriver> ops;
  if (w.rate > 0) {
    ops = std::make_unique<OpDriver>(
        c, w.rate, w.mix, derive_seed(a.workload, a.seed, 1000), tracer);
    ops->start();
  }
  p.win = run_window(c, chunks, between);
  if (tracer) {
    tracer->add({"window", 0, 0, kNoNode, wall_start, wall_ns(), window_start,
                 c.now()});
  }
  if (ops) {
    ops->stop_arrivals();
    if (!c.poll_until([&] { return ops->idle(); }, kDrainBudget)) {
      r.fail("client operations still queued after the drain budget");
    }
    if (const std::string e = ops->check(c.registry()); !e.empty()) r.fail(e);
  }
  p.closure_changes = c.registry().config_history().events_since(window_start);
  check_registry(r, c, "window");
  if (!ops) return p;
  for (const OpDriver::Op& op : ops->ops()) {
    ++p.attempted;
    if (!op.ok) {
      ++p.failed;
      continue;
    }
    const double lat = ms(op.done - op.due);
    p.latency_ms.push_back(lat);
    p.wait_ms.push_back(ms(op.begin - op.due));
    switch (op.kind) {
      case OpDriver::Kind::kInc:
        p.inc_service_ms.push_back(ms(op.done - op.begin));
        break;
      case OpDriver::Kind::kWrite:
        p.write_ms.push_back(lat);
        break;
      case OpDriver::Kind::kRead:
        p.read_ms.push_back(lat);
        break;
    }
  }
  return p;
}

void op_layers(Report& r, const OpPass& p) {
  const Totals& d = p.win.work;
  r.set("counter.service_p50_ms", median(p.inc_service_ms), "sim_ms");
  r.set("counter.queue_wait_p99_ms", percentile(p.wait_ms, 99), "sim_ms");
  r.set("shmem.write_p50_ms", median(p.write_ms), "sim_ms");
  r.set("shmem.read_p50_ms", median(p.read_ms), "sim_ms");
  r.set("counter.exchanges_per_op",
        frac(d[Totals::kCounterExchanges],
             static_cast<double>(p.inc_service_ms.size())),
        "count");
  r.set("client.goodput_ops_s",
        frac(static_cast<double>(p.latency_ms.size()),
             static_cast<double>(p.win.sim) / kSec),
        "ops/s");
  r.set("reconf.closure_config_changes",
        static_cast<double>(p.closure_changes), "count");
}

std::vector<double> round_ms(const RxTap& tap) {
  std::vector<double> out;
  out.reserve(tap.round_us.size());
  for (std::uint32_t us : tap.round_us) out.push_back(ms(us));
  return out;
}

Report traced_op_workload(const Args& a, const OpWorkload& w,
                          Tracer& tracer) {
  Report r;
  zero_layers(r);
  const std::size_t chunks = work_units(
      a, w.sim_per_second * kSec / kChunk, kSmokeWindow / kChunk, true);
  SeedStream seeds(r, a, w.nodes, w.vs);
  SetUp u = seeds.next();
  if (!u.cluster) return r;
  const OpPass up = op_pass(r, *u.cluster, w, a, chunks, nullptr);
  u.cluster.reset();

  RxTap rx;
  rx.tracer = &tracer;
  SetUp t = set_up(w.nodes, w.vs, u.seed);
  if (!t.cluster) {
    r.fail("traced set-up did not converge");
    return r;
  }
  check_same(r, t.at_ready, u.at_ready, "set-up counts differ between passes");
  tap_rx(*t.cluster, rx);
  const OpPass tp = op_pass(r, *t.cluster, w, a, chunks, &tracer);
  check_same(r, tp.win.end, up.win.end,
             "traced window does not reproduce the untraced counts");
  count_layers(r, up.win, w.nodes);
  op_layers(r, up);
  timed_layers(r, *t.cluster, rx, tracer, tp.win, w.nodes, a.smoke);
  r.set("trace_overhead_frac", 1.0 - frac(tp.win.sim_rate(), up.win.sim_rate()),
        "frac");
  r.attempted = w.rate > 0 ? up.attempted : rx.round_us.size();
  r.failed = up.failed;
  return r;
}

Report run_op_workload(const Args& a, const OpWorkload& w) {
  if (a.trace) {
    Tracer tracer;
    Report r = traced_op_workload(a, w, tracer);
    tracer.write_jsonl(a);
    return r;
  }

  Report r;
  const std::size_t chunks = work_units(a, w.sim_per_second * kSec / kChunk,
                                        kSmokeWindow / kChunk);
  std::vector<double> setup_s, converge_ms;
  SeedStream seeds(r, a, w.nodes, w.vs);
  SetUp main = seeds.next();
  if (!main.cluster) return r;
  setup_s.push_back(main.wall_s);
  converge_ms.push_back(main.converge_ms);
  // The other set-ups are spread evenly over the window, so that a change
  // in host speed during the run reaches setup_s as it reaches the window.
  const std::size_t setups = a.smoke ? 2 : kSetUps;
  std::size_t next = 1;
  auto more_set_ups = [&](std::size_t done) {
    for (; next < setups && done * setups >= next * chunks; ++next) {
      SetUp s = seeds.next();
      if (!s.cluster) return;
      setup_s.push_back(s.wall_s);
      converge_ms.push_back(s.converge_ms);
    }
  };
  // Without client operations the latency a user of the cluster waits on is
  // the token round: the time a node's state takes to reach a neighbour and
  // be acknowledged, the unit every quorum operation is made of.
  RxTap rounds;
  if (w.rate == 0) tap_rx(*main.cluster, rounds);
  const OpPass p = op_pass(r, *main.cluster, w, a, chunks, nullptr,
                           more_set_ups);
  check_same(r, set_up(w.nodes, w.vs, main.seed).at_ready, main.at_ready,
             "repeated set-up does not reproduce its counts");

  const std::vector<double> latency_ms =
      w.rate > 0 ? p.latency_ms : round_ms(rounds);
  r.set("setup_s", median(setup_s), "s");
  r.set("converge_ms", median(converge_ms), "ms");
  // A noisy neighbour on a shared host only ever adds time: the 10th
  // percentile over the chunks is the cost of the undisturbed simulator.
  r.set("cpu_ms_per_node_s", percentile(p.win.cpu_ms_per_node_s, 10), "ms");
  r.set("latency_p50_ms", median(latency_ms), "ms");
  r.set("latency_tail_ms", tail(latency_ms, 99), "ms");
  r.set("pkts_per_node_s", frac(p.win.work[Totals::kSent], p.win.node_seconds),
        "1/s");
  r.set("peak_rss_mb", peak_rss_mb_self(), "MB");
  // steady-9 counts its token rounds, the samples of its latency.
  r.attempted = w.rate > 0 ? p.attempted : latency_ms.size();
  r.failed = p.failed;
  std::fprintf(stderr,
               "%s: %zu chunks, %.1f sim-s in %.2f wall-s (%.2f sim-s/s), "
               "%zu latency samples, %llu ops (%llu failed)\n",
               a.workload.c_str(), p.win.chunks,
               static_cast<double>(p.win.sim) / kSec, p.win.wall_ns / 1e9,
               p.win.sim_rate(), latency_ms.size(),
               static_cast<unsigned long long>(p.attempted),
               static_cast<unsigned long long>(p.failed));
  std::fprintf(stderr,
               "%s: %zu set-ups, wall s min %.4f median %.4f max %.4f\n",
               a.workload.c_str(), setup_s.size(), percentile(setup_s, 0),
               median(setup_s), percentile(setup_s, 100));
  return r;
}

// -- fault-transient, fault-conflict, fault-partition, fault-crash -----------

enum class Fault { kTransient, kConflict, kPartition, kCrash };

struct FaultWorkload {
  const char* name;
  Fault fault;
  double seeds_per_second;  // fault seeds per --seconds
};

constexpr FaultWorkload kFaultWorkloads[] = {
    {"fault-transient", Fault::kTransient, 8.0},
    {"fault-conflict", Fault::kConflict, 8.0},
    {"fault-partition", Fault::kPartition, 3.5},
    {"fault-crash", Fault::kCrash, 15.0},
};

const FaultWorkload* find_fault(const std::string& name) {
  for (const FaultWorkload& f : kFaultWorkloads) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

/// Everything one pass over the fault seeds measured.
struct FaultRun {
  Window win;  // fault phases of every seed (set-ups excluded)
  std::vector<double> recover_ms;
  std::vector<double> suspect_ms;
  std::vector<double> setup_s, converge_ms;
  std::vector<std::uint64_t> seeds;  // set-up seed of each fault
  std::vector<Totals> seed_ends;     // absolute totals at each seed's end
  std::uint64_t faults = 0;
  std::uint64_t missed = 0;
  Totals per_fault;  // recovery deltas summed over every fault
  /// Traced pass only: the last seed's cluster, kept for the isolated tick
  /// timings. Its packet tap refers to the caller's RxTap.
  std::unique_ptr<Cluster> last;
};

/// One fault on a freshly set-up cluster, then a closure window.
void fault_seed(Report& r, Cluster& c, const Args& a, Fault fault,
                FaultRun& run, Tracer* tracer) {
  harness::World& w = c.world();
  Stopwatch sw(c);
  // Every node in `watchers` has stopped trusting every node in `gone`.
  auto suspected = [&w](const IdSet& watchers, const IdSet& gone) {
    for (NodeId id : watchers) {
      if (w.node(id).failure_detector().trusted().intersection_size(gone) !=
          0) {
        return false;
      }
    }
    return true;
  };
  std::function<bool()> recovered = [&w] { return w.converged(); };
  std::optional<SimTime> suspect_at;

  // Recovery counts from the end of the fault: the injection, or the heal.
  const Totals before = c.totals();
  const SimTime t_inject = c.now();
  const std::uint64_t wall_inject = wall_ns();
  switch (fault) {
    case Fault::kTransient:  // arbitrary recSA + FD state, garbage in flight
      c.injector().corrupt_all_recsa();
      c.injector().corrupt_all_fd();
      c.injector().fill_channels_with_garbage(2);
      break;
    case Fault::kConflict:  // planted configuration conflict
      c.injector().split_config(IdSet{1, 2, 3}, IdSet{3, 4, 5});
      break;
    case Fault::kPartition: {  // minority partition, then heal
      const IdSet minority{1, 2}, majority{3, 4, 5};
      w.network().split(minority, majority);
      if (auto s = c.poll_until(
              [&] {
                return suspected(minority, majority) &&
                       suspected(majority, minority);
              },
              kPartitionFor, tracer)) {
        run.suspect_ms.push_back(ms(*s));
      }
      if (c.now() < t_inject + kPartitionFor) {
        c.advance(t_inject + kPartitionFor - c.now());
      }
      w.network().heal();
      break;
    }
    case Fault::kCrash: {  // crash the two highest-id configuration members
      const IdSet cfg = w.common_config().value_or(w.alive());
      IdSet victims;
      for (auto it = cfg.end(); it != cfg.begin() && victims.size() < 2;) {
        victims.insert(*--it);
      }
      for (NodeId v : victims) {
        w.crash(v);
        c.trace().record(scenario::TraceKind::kNodeCrashed, v);
      }
      // converged() alone can hold during the failure detector's blind
      // window; the crash is recovered once the configuration is the alive
      // set. The same polls note when every survivor suspects the victims.
      recovered = [&w, &c, &suspect_at, &suspected, victims,
                   alive = w.alive()] {
        if (!suspect_at && suspected(alive, victims)) suspect_at = c.now();
        auto cc = w.common_config();
        return cc && *cc == w.alive();
      };
      break;
    }
  }

  const SimTime t_from = c.now();
  ++run.faults;
  const auto took = c.poll_until(recovered, a.recover_deadline, tracer,
                                 Cluster::kStableFor, Cluster::kFinePollFor);
  if (suspect_at) run.suspect_ms.push_back(ms(*suspect_at - t_inject));
  if (!took) {
    ++run.missed;
    r.fail("no recovery within the deadline");
  } else {
    run.recover_ms.push_back(ms(*took));
    const Totals d = c.totals().minus(before);
    for (std::size_t i = 0; i < Totals::kNumFields; ++i) {
      run.per_fault.v[i] += d.v[i];
    }
    if (tracer) {
      const std::uint64_t now = wall_ns();
      const SimTime done = t_from + *took;
      const std::uint64_t root =
          tracer->add({std::string("fault.") + a.workload.substr(6), 0, 0,
                       kNoNode, wall_inject, now, t_inject, done});
      tracer->add(
          {"recovery", 0, root, kNoNode, wall_inject, now, t_from, done});
    }
    c.registry().mark_stable();
    c.advance(kSettle);
    c.registry().unmark_stable();
  }
  run.win.cpu_ms_per_node_s.push_back(sw.cpu_ms_per_node_s());
  sw.finish(run.win);
  run.seed_ends.push_back(run.win.end);
}

/// `count` fault seeds, each on its own freshly set-up cluster from `next`.
void fault_pass(Report& r, const Args& a, Fault fault, FaultRun& run,
                std::size_t count, const std::function<SetUp()>& next,
                RxTap* tap) {
  for (std::size_t j = 0; j < count; ++j) {
    SetUp s = next();
    if (!s.cluster) {
      r.fail("fault set-up on seed " + std::to_string(s.seed) +
             " did not converge");
      return;
    }
    run.seeds.push_back(s.seed);
    run.setup_s.push_back(s.wall_s);
    run.converge_ms.push_back(s.converge_ms);
    if (tap) tap_rx(*s.cluster, *tap);
    fault_seed(r, *s.cluster, a, fault, run, tap ? tap->tracer : nullptr);
    check_registry(r, *s.cluster, "fault seed " + std::to_string(s.seed));
    if (tap) run.last = std::move(s.cluster);
  }
}

/// Set-ups on exactly the seeds an earlier pass used.
std::function<SetUp()> replay_seeds(const std::vector<std::uint64_t>& seeds) {
  return [&seeds, k = std::size_t{0}]() mutable {
    return set_up(kFaultNodes, false, seeds[k++]);
  };
}

void fault_layers(Report& r, const FaultRun& run, Fault fault) {
  count_layers(r, run.win, kFaultNodes);
  const double faults = static_cast<double>(run.faults);
  const Totals& pf = run.per_fault;
  if (fault == Fault::kTransient) {
    r.set("dlink.cleans_per_fault", frac(pf[Totals::kCleans], faults),
          "count");
  }
  r.set("fd.suspect_ms", median(run.suspect_ms), "sim_ms");
  r.set("reconf.resets_per_fault", frac(pf[Totals::kResets], faults), "count");
  r.set("reconf.installs_per_fault", frac(pf[Totals::kInstalls], faults),
        "count");
  r.set("reconf.phase_transitions_per_fault",
        frac(pf[Totals::kPhaseTransitions], faults), "count");
  r.set("reconf.stale_detected_per_fault",
        frac(pf[Totals::kStaleDetected], faults), "count");
  r.set("reconf.recma_triggers_per_fault",
        frac(pf[Totals::kRecmaTriggers], faults), "count");
}

}  // namespace

Report run_steady(const Args& a) {
  // No client operations: maintenance traffic alone.
  return run_op_workload(a, OpWorkload{9, false, 0.0, {}, 3.5});
}

Report run_smr(const Args& a) {
  // 7.5 ops/s is a quarter of the highest rate whose p99 stays within
  // 100 ms (31 ops/s; see the README for the search).
  return run_op_workload(
      a, OpWorkload{5, true, a.rate > 0 ? a.rate : 7.5, {0.70, 0.15}, 12.0});
}

bool is_fault_workload(const std::string& name) {
  return find_fault(name) != nullptr;
}

Report run_fault(const Args& a) {
  const FaultWorkload& fw = *find_fault(a.workload);
  Report r;
  SeedStream seeds(r, a, kFaultNodes, false);
  const std::function<SetUp()> next = [&seeds] { return seeds.next(); };
  if (a.trace) {
    zero_layers(r);
    FaultRun u;
    fault_pass(r, a, fw.fault, u,
               work_units(a, fw.seeds_per_second, kSmokeSeeds, true), next,
               nullptr);
    Tracer tracer;
    RxTap rx;
    rx.tracer = &tracer;
    FaultRun t;
    fault_pass(r, a, fw.fault, t, u.seeds.size(), replay_seeds(u.seeds), &rx);
    for (std::size_t j = 0; j < u.seed_ends.size() && j < t.seed_ends.size();
         ++j) {
      check_same(r, t.seed_ends[j], u.seed_ends[j],
                 "traced fault seed " + std::to_string(j) +
                     " does not reproduce the untraced counts");
    }
    fault_layers(r, u, fw.fault);
    if (t.last) {
      timed_layers(r, *t.last, rx, tracer, t.win, kFaultNodes, a.smoke);
    }
    r.set("trace_overhead_frac",
          1.0 - frac(t.win.sim_rate(), u.win.sim_rate()), "frac");
    r.attempted = u.faults;
    r.failed = u.missed;
    tracer.write_jsonl(a);
    t.last.reset();
    return r;
  }

  FaultRun run;
  fault_pass(r, a, fw.fault, run,
             work_units(a, fw.seeds_per_second, kSmokeSeeds), next, nullptr);
  if (!run.seeds.empty()) {
    // Determinism: the first seed once more must reproduce its counts.
    FaultRun again;
    fault_pass(r, a, fw.fault, again, 1, replay_seeds(run.seeds), nullptr);
    if (!again.seed_ends.empty()) {
      check_same(r, again.seed_ends[0], run.seed_ends[0],
                 "repeated fault seed does not reproduce its counts");
    }
  }
  r.set("setup_s", median(run.setup_s), "s");
  r.set("converge_ms", median(run.converge_ms), "ms");
  r.set("cpu_ms_per_node_s", percentile(run.win.cpu_ms_per_node_s, 10), "ms");
  r.set("latency_p50_ms", median(run.recover_ms), "ms");
  r.set("latency_tail_ms", tail(run.recover_ms, 90), "ms");
  r.set("pkts_per_node_s",
        frac(run.win.work[Totals::kSent], run.win.node_seconds), "1/s");
  r.set("peak_rss_mb", peak_rss_mb_self(), "MB");
  r.attempted = run.faults;
  r.failed = run.missed;
  std::fprintf(stderr,
               "%s: %zu seeds, %llu recoveries (%llu missed), "
               "%.1f sim-s in %.2f wall-s\n",
               a.workload.c_str(), run.seeds.size(),
               static_cast<unsigned long long>(run.faults),
               static_cast<unsigned long long>(run.missed),
               static_cast<double>(run.win.sim) / kSec, run.win.wall_ns / 1e9);
  return r;
}

}  // namespace ssr::bench
