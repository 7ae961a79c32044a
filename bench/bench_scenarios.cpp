// Scenario-engine bench: runs library scenarios end to end on the
// deterministic scheduler and reports virtual-time-to-completion plus the
// trace volume. This is the migration target for ad-hoc bench scripts: a
// new execution shape is a ScenarioSpec, not another hand-rolled driver.
//
// On exit the accumulated per-scenario metrics are written to
// BENCH_scenarios.json in the working directory (events/sec, packet
// counts) so CI and regression tooling can diff runs without scraping
// benchmark text output.
//
// The BM_WriterFieldAppend pair quantifies the wire::Writer::reserve()
// pre-allocation used on the hot encode paths (frames, bundles, UDP
// envelopes): Arg(0) grows the buffer per field, Arg(1) reserves once.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "dlink/token_link.hpp"
#include "label/label_store.hpp"
#include "net/channel.hpp"
#include "scenario/library.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"
#include "scenario/trace.hpp"
// Replaces global operator new: BM_ChannelSendAlloc, BM_PairStoreMaintainAlloc
// and BM_TraceRecordAlloc sample util::allocations() around their warmed
// loops to assert the hot paths perform zero heap allocations.
#include "util/alloc_counter.hpp"

#if defined(__linux__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "net/udp_transport.hpp"
#include "wire/wire.hpp"
#endif

namespace ssr::bench {
namespace {

/// Set when an allocation assertion fails, so the process exits nonzero and
/// CI fails loudly instead of just printing a slower number.
bool g_alloc_regression = false;

struct ScenarioAgg {
  int iterations = 0;
  double wall_ms = 0;
  double sim_ms = 0;
  double trace_events = 0;
  double sched_events = 0;
  double packets_sent = 0;
  double packets_delivered = 0;
  double pool_acquired = 0;
  double pool_reused = 0;
  double ops_completed = 0;
  double op_p50_us = 0;
  double op_p99_us = 0;
};

std::map<std::string, ScenarioAgg>& metrics() {
  static std::map<std::string, ScenarioAgg> m;
  return m;
}

void run_named(benchmark::State& state, const char* name) {
  auto spec = scenario::find_scenario(name);
  if (!spec) {
    state.SkipWithError("unknown scenario");
    return;
  }
  // Per-invocation accumulator for the reported counters; the static map
  // only feeds write_json (it outlives repetitions, so dividing it by this
  // invocation's iteration count would inflate repeated runs).
  ScenarioAgg local;
  std::uint64_t seed = 9000;
  for (auto _ : state) {
    const auto wall_start = std::chrono::steady_clock::now();
    const scenario::ScenarioResult r = scenario::run_scenario(*spec, seed++);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    if (!r.ok) {
      state.SkipWithError(r.summary().c_str());
      return;
    }
    ++local.iterations;
    local.wall_ms += wall_ms;
    local.sim_ms += static_cast<double>(r.sim_time) / kMsec;
    local.trace_events += static_cast<double>(r.trace_events);
    local.sched_events += static_cast<double>(r.sched_events);
    local.packets_sent += static_cast<double>(r.packets_sent);
    local.packets_delivered += static_cast<double>(r.packets_delivered);
    local.pool_acquired += static_cast<double>(r.pool_acquired);
    local.pool_reused += static_cast<double>(r.pool_reused);
    local.ops_completed += static_cast<double>(r.ops_completed);
    local.op_p50_us += static_cast<double>(r.op_p50_us);
    local.op_p99_us += static_cast<double>(r.op_p99_us);
  }
  ScenarioAgg& agg = metrics()[name];
  agg.iterations += local.iterations;
  agg.wall_ms += local.wall_ms;
  agg.sim_ms += local.sim_ms;
  agg.trace_events += local.trace_events;
  agg.sched_events += local.sched_events;
  agg.packets_sent += local.packets_sent;
  agg.packets_delivered += local.packets_delivered;
  agg.pool_acquired += local.pool_acquired;
  agg.pool_reused += local.pool_reused;
  agg.ops_completed += local.ops_completed;
  agg.op_p50_us += local.op_p50_us;
  agg.op_p99_us += local.op_p99_us;
  const double it = static_cast<double>(state.iterations());
  state.counters["sim_ms"] = benchmark::Counter(local.sim_ms / it);
  state.counters["trace_events"] = benchmark::Counter(local.trace_events / it);
  state.counters["events_per_sec"] = benchmark::Counter(
      local.wall_ms > 0 ? local.sched_events / (local.wall_ms / 1e3) : 0);
  state.counters["packets_sent"] = benchmark::Counter(local.packets_sent / it);
  state.counters["pool_hit_pct"] = benchmark::Counter(
      local.pool_acquired > 0 ? 100.0 * local.pool_reused / local.pool_acquired
                              : 0);
  if (local.ops_completed > 0) {
    state.counters["op_p50_us"] = benchmark::Counter(local.op_p50_us / it);
    state.counters["op_p99_us"] = benchmark::Counter(local.op_p99_us / it);
  }
}

struct SweepAgg {
  int iterations = 0;
  double wall_ms = 0;
  double runs = 0;         // (spec, seed) jobs completed
  double agg_events = 0;   // scheduler events summed over every job
  double max_cpu_sec = 0;  // slowest worker's thread CPU time, summed per iter
};

// Keyed by --jobs; jobs=1 is the serial baseline speedup_vs_1job divides by.
std::map<int, SweepAgg>& sweep_metrics() {
  static std::map<int, SweepAgg> m;
  return m;
}

#if defined(__linux__)
struct UdpBatchAgg {
  int iterations = 0;
  double datagrams = 0;           // kernel-accepted datagrams at the parent
  double packets_per_sec = 0;     // accepted datagrams/sec, summed per iter
  double dgrams_per_syscall = 0;  // parent sent / parent send_syscalls
};

// Keyed by ring depth; batch=1 is the unbatched baseline the speedup
// figure divides by.
std::map<int, UdpBatchAgg>& udp_batch_metrics() {
  static std::map<int, UdpBatchAgg> m;
  return m;
}
#endif

void write_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) return;
  std::fprintf(f, "{\n  \"benchmark\": \"scenarios\",\n  \"scenarios\": [\n");
  bool first = true;
  for (const auto& [name, a] : metrics()) {
    if (a.iterations == 0) continue;
    const double it = a.iterations;
    const double events_per_sec =
        a.wall_ms > 0 ? a.sched_events / (a.wall_ms / 1e3) : 0;
    std::fprintf(f,
                 "%s    {\"name\": \"%s\", \"iterations\": %d, "
                 "\"wall_ms\": %.3f, \"sim_ms\": %.3f, "
                 "\"trace_events\": %.1f, \"sched_events\": %.1f, "
                 "\"events_per_sec\": %.1f, "
                 "\"packets_sent\": %.1f, \"packets_delivered\": %.1f, "
                 "\"pool_acquired\": %.1f, \"pool_reused\": %.1f, "
                 "\"ops_completed\": %.1f, "
                 "\"op_p50_us\": %.1f, \"op_p99_us\": %.1f}",
                 first ? "" : ",\n", name.c_str(), a.iterations,
                 a.wall_ms / it, a.sim_ms / it, a.trace_events / it,
                 a.sched_events / it, events_per_sec, a.packets_sent / it,
                 a.packets_delivered / it, a.pool_acquired / it,
                 a.pool_reused / it, a.ops_completed / it, a.op_p50_us / it,
                 a.op_p99_us / it);
    first = false;
  }
  std::fprintf(f, "\n  ]");
  if (!sweep_metrics().empty()) {
    // Parallel sweep engine (see BM_SweepThroughput): aggregate scheduler
    // events normalized by the slowest worker's CPU seconds, so the scaling
    // figure measures per-core capacity on any host. speedup_vs_1job is the
    // floor bench_compare.py --check-sweep-scaling enforces.
    double base = 0;
    if (auto it = sweep_metrics().find(1);
        it != sweep_metrics().end() && it->second.max_cpu_sec > 0) {
      base = it->second.agg_events / it->second.max_cpu_sec;
    }
    std::fprintf(f, ",\n  \"sweep\": [\n");
    bool first = true;
    for (const auto& [jobs, a] : sweep_metrics()) {
      if (a.iterations == 0 || a.max_cpu_sec <= 0) continue;
      const double per_cpu = a.agg_events / a.max_cpu_sec;
      std::fprintf(f,
                   "%s    {\"jobs\": %d, \"iterations\": %d, "
                   "\"wall_ms\": %.3f, \"runs\": %.1f, "
                   "\"agg_sched_events\": %.1f, "
                   "\"agg_events_per_cpu_sec\": %.1f, "
                   "\"speedup_vs_1job\": %.3f}",
                   first ? "" : ",\n", jobs, a.iterations,
                   a.wall_ms / a.iterations, a.runs / a.iterations,
                   a.agg_events / a.iterations, per_cpu,
                   base > 0 ? per_cpu / base : 0);
      first = false;
    }
    std::fprintf(f, "\n  ]");
  }
#if defined(__linux__)
  if (!udp_batch_metrics().empty()) {
    // Two-process loopback burst (see BM_UdpBatchThroughput). The floors
    // bench_compare.py enforces: the batched row's datagrams per send
    // syscall and its speedup over the batch=1 baseline.
    double base_pps = 0;
    if (auto it = udp_batch_metrics().find(1);
        it != udp_batch_metrics().end() && it->second.iterations > 0) {
      base_pps = it->second.packets_per_sec / it->second.iterations;
    }
    std::fprintf(f, ",\n  \"udp_batch\": [\n");
    bool first = true;
    for (const auto& [batch, a] : udp_batch_metrics()) {
      if (a.iterations == 0) continue;
      const double it = a.iterations;
      const double pps = a.packets_per_sec / it;
      std::fprintf(f,
                   "%s    {\"batch\": %d, \"iterations\": %d, "
                   "\"datagrams\": %.1f, \"packets_per_sec\": %.1f, "
                   "\"datagrams_per_send_syscall\": %.2f, "
                   "\"speedup_vs_batch1\": %.3f}",
                   first ? "" : ",\n", batch, a.iterations, a.datagrams / it,
                   pps, a.dgrams_per_syscall / it,
                   base_pps > 0 ? pps / base_pps : 0);
      first = false;
    }
    std::fprintf(f, "\n  ]");
  }
#endif
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

void BM_ScenarioBootstrap(benchmark::State& state) {
  run_named(state, "bootstrap");
}
void BM_ScenarioTransientBlast(benchmark::State& state) {
  run_named(state, "transient-blast");
}
void BM_ScenarioMajoritySplit(benchmark::State& state) {
  run_named(state, "majority-split");
}
void BM_ScenarioPartitionHeal(benchmark::State& state) {
  run_named(state, "partition-heal");
}

BENCHMARK(BM_ScenarioBootstrap)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_ScenarioTransientBlast)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK(BM_ScenarioMajoritySplit)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK(BM_ScenarioPartitionHeal)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// --- Parallel sweep throughput ----------------------------------------------

/// The sweep engine over one scenario × 16 seeds at Arg(0) worker threads.
/// Jobs are fully independent worlds, so aggregate capacity should scale
/// with cores; the headline metric is CPU-time normalized — aggregate
/// scheduler events divided by the *slowest* worker's thread CPU seconds
/// (SweepSummary::max_worker_cpu_sec) — which projects the events/sec an
/// N-core host would sustain even when this host has a single timesliced
/// core. write_json derives speedup_vs_1job
/// from it; bench_compare.py --check-sweep-scaling holds the ≥2.0x floor
/// at 4 jobs.
void BM_SweepThroughput(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  auto spec = scenario::find_scenario("majority-split");
  if (!spec) {
    state.SkipWithError("unknown scenario");
    return;
  }
  constexpr std::uint64_t kFirstSeed = 100;
  constexpr std::uint64_t kSeeds = 16;
  SweepAgg local;
  for (auto _ : state) {
    scenario::SweepOptions opt;
    opt.jobs = jobs;
    scenario::SweepRunner runner(opt);
    runner.add_seed_range(*spec, kFirstSeed, kFirstSeed + kSeeds - 1);
    const scenario::SweepSummary s = runner.run();
    if (!s.ok) {
      state.SkipWithError("a sweep job failed");
      return;
    }
    if (s.max_worker_cpu_sec <= 0) {
      state.SkipWithError("no per-thread CPU clock on this platform");
      return;
    }
    ++local.iterations;
    local.wall_ms += s.wall_ms;
    local.runs += static_cast<double>(s.results.size());
    for (const scenario::ScenarioResult& r : s.results) {
      local.agg_events += static_cast<double>(r.sched_events);
    }
    local.max_cpu_sec += s.max_worker_cpu_sec;
  }
  SweepAgg& agg = sweep_metrics()[static_cast<int>(jobs)];
  agg.iterations += local.iterations;
  agg.wall_ms += local.wall_ms;
  agg.runs += local.runs;
  agg.agg_events += local.agg_events;
  agg.max_cpu_sec += local.max_cpu_sec;
  state.counters["agg_events_per_cpu_sec"] = benchmark::Counter(
      local.max_cpu_sec > 0 ? local.agg_events / local.max_cpu_sec : 0);
}
BENCHMARK(BM_SweepThroughput)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(2);

// --- UDP syscall batching ----------------------------------------------------

#if defined(__linux__)

/// Child half of BM_UdpBatchThroughput: a real second process with its own
/// UdpTransport that learns nothing statically — it announces itself with an
/// empty hello toward the parent's port, then drains the parent's burst
/// traffic, until the 0xFF stop marker (or a watchdog deadline) ends it.
[[noreturn]] void udp_drain_child(std::uint16_t parent_port,
                                  std::size_t batch) {
  net::UdpTransportConfig cfg;
  cfg.self = 2;
  cfg.peers[2] = net::UdpEndpoint{"127.0.0.1", 0};
  cfg.batch = batch;
  net::UdpTransport t(cfg);
  t.set_peer(1, net::UdpEndpoint{"127.0.0.1", parent_port});
  bool done = false;
  t.attach(2, [&](const net::Packet& p) {
    if (p.payload.size() == 1 && p.payload[0] == 0xFF) done = true;
  });
  const SimTime deadline = t.now() + 30 * kSec;
  SimTime next_hello = 0;
  while (!done && t.now() < deadline) {
    if (t.stats().received == 0 && t.now() >= next_hello) {
      t.send(2, 1, wire::Bytes{});
      t.flush();
      next_hello = t.now() + 50 * kMsec;
    }
    t.poll_once(5 * kMsec);
  }
  ::_exit(0);
}

/// Two-process loopback burst: the parent fires kBursts windows of kWindow
/// data datagrams at a forked drain child — the protocol's own traffic
/// shape, a tick fanning a frame to every peer, scaled up. Each window is
/// staged back-to-back in the send ring, so at batch=16 a 32-datagram
/// window is exactly two sendmmsg calls; at batch=1 it degrades to one
/// syscall per datagram (the A/B baseline). Reported: kernel-accepted
/// datagrams/sec at the parent and parent-side datagrams per send syscall;
/// write_json derives speedup_vs_batch1. bench_compare.py holds the floors
/// (≥8 datagrams/syscall batched, ≥1.5x the unbatched rate).
void BM_UdpBatchThroughput(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  constexpr int kWindow = 32;
  constexpr int kBursts = 400;
  constexpr std::size_t kPayload = 32;
  UdpBatchAgg local;
  for (auto _ : state) {
    net::UdpTransportConfig cfg;
    cfg.self = 1;
    cfg.peers[1] = net::UdpEndpoint{"127.0.0.1", 0};
    cfg.batch = batch;
    net::UdpTransport parent(cfg);
    parent.attach(1, [](const net::Packet&) {});
    const pid_t pid = ::fork();
    if (pid == 0) udp_drain_child(parent.local_port(), batch);
    if (pid < 0) {
      state.SkipWithError("fork failed");
      return;
    }
    // The child's hello teaches the parent the route.
    const SimTime hello_deadline = parent.now() + 10 * kSec;
    while (!parent.has_peer(2) && parent.now() < hello_deadline) {
      parent.poll_once(5 * kMsec);
    }
    bool ok = parent.has_peer(2);
    double pps = 0, dps = 0;
    if (ok) {
      const std::uint64_t sent0 = parent.stats().sent;
      const std::uint64_t sys0 = parent.stats().send_syscalls;
      int staged = 0;
      const auto wall_start = std::chrono::steady_clock::now();
      for (int burst = 0; burst < kBursts; ++burst) {
        for (int i = 0; i < kWindow; ++i) {
          wire::Bytes b = wire::BufferPool::local().acquire();
          b.assign(kPayload, static_cast<std::uint8_t>(staged));
          parent.send(1, 2, std::move(b));
          ++staged;
        }
        parent.flush();  // window boundary — the tick-boundary hook
      }
      const double wall_sec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      const std::uint64_t dsent = parent.stats().sent - sent0;
      const std::uint64_t dsys = parent.stats().send_syscalls - sys0;
      pps = wall_sec > 0 ? static_cast<double>(dsent) / wall_sec : 0;
      dps = dsys > 0 ? static_cast<double>(dsent) / static_cast<double>(dsys)
                     : 0;
      local.datagrams += static_cast<double>(dsent);
      ok = dsent > 0 && pps > 0;
    }
    // Stop the child; keep nudging until it exits, then hard-kill at the
    // deadline so a wedged child can never hang the bench.
    const auto kill_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    int status = 0;
    for (;;) {
      parent.send(1, 2, wire::Bytes{0xFF});
      parent.flush();
      if (::waitpid(pid, &status, WNOHANG) != 0) break;
      if (std::chrono::steady_clock::now() > kill_deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      parent.poll_once(1 * kMsec);
    }
    if (!ok) {
      state.SkipWithError("loopback burst never completed");
      return;
    }
    ++local.iterations;
    local.packets_per_sec += pps;
    local.dgrams_per_syscall += dps;
  }
  UdpBatchAgg& agg = udp_batch_metrics()[static_cast<int>(batch)];
  agg.iterations += local.iterations;
  agg.datagrams += local.datagrams;
  agg.packets_per_sec += local.packets_per_sec;
  agg.dgrams_per_syscall += local.dgrams_per_syscall;
  if (local.iterations > 0) {
    state.counters["packets_per_sec"] =
        benchmark::Counter(local.packets_per_sec / local.iterations);
    state.counters["dgrams_per_send_syscall"] =
        benchmark::Counter(local.dgrams_per_syscall / local.iterations);
  }
}
BENCHMARK(BM_UdpBatchThroughput)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(16)
    ->Arg(32)
    ->Iterations(2);

#endif  // defined(__linux__)

// --- Allocation micro-bench -------------------------------------------------

/// Steady-state Channel::send → delivery with a warmed pool must perform
/// exactly 0 heap allocations per packet: the payload buffer is pooled, the
/// scheduler event comes from the slab, and no closure is built. The bench
/// errors out (and the process exits nonzero) on any regression, so a new
/// allocation on the hot path fails CI loudly instead of just slowly.
void BM_ChannelSendAlloc(benchmark::State& state) {
  sim::Scheduler sched;
  net::ChannelConfig cfg;
  cfg.loss_probability = 0;
  cfg.duplicate_probability = 0;
  cfg.corrupt_probability = 0;
  cfg.capacity = 8;
  std::uint64_t delivered = 0;
  net::Channel ch(sched, Rng(1), cfg, 1, 2, [&](net::Packet& pkt) {
    benchmark::DoNotOptimize(pkt.payload.data());
    ++delivered;
  });
  auto send_one = [&](std::uint64_t tag) {
    wire::Writer w;
    w.u64(0x1122334455667788ULL);
    w.u64(tag);
    w.u32(7);
    ch.send(w.take());
    sched.run_for(5 * kMsec);  // drain: max_delay is 2ms
  };
  for (std::uint64_t i = 0; i < 64; ++i) send_one(i);  // warm pool + slab
  std::uint64_t packets = 0;
  const std::uint64_t allocs_before = util::allocations();
  for (auto _ : state) {
    send_one(packets);
    ++packets;
  }
  const std::uint64_t allocs = util::allocations() - allocs_before;
  state.counters["allocs_per_packet"] = benchmark::Counter(
      packets > 0 ? static_cast<double>(allocs) / static_cast<double>(packets)
                  : 0);
  state.counters["delivered"] =
      benchmark::Counter(static_cast<double>(delivered));
  if (allocs != 0) {
    g_alloc_regression = true;
    state.SkipWithError("steady-state send→deliver allocated on the heap");
  }
}
BENCHMARK(BM_ChannelSendAlloc);

/// Steady-state PairStore::maintain(): after the store has adopted a stable
/// maximal label and every peer's max entry sits merged in its creator's
/// queue, a receipt→maintain round must not touch the heap — the dedupe
/// pass runs in place, duplicate merges assign into existing storage, and
/// the adoption step reuses a scratch pair. Same contract (and the same
/// loud CI failure) as BM_ChannelSendAlloc.
void BM_PairStoreMaintainAlloc(benchmark::State& state) {
  using label::Label;
  using label::LabelPair;
  label::LabelStore store(1, label::StoreConfig{}, Rng(42));
  store.rebuild(IdSet{1, 2, 3});
  // Stable legit labels from both peers; creator 3's label is the maximal
  // one the store keeps adopting.
  const LabelPair from2 = LabelPair::of(Label{2, 7, {1, 2, 3}});
  const LabelPair from3 = LabelPair::of(Label{3, 9, {4, 5, 6}});
  const LabelPair none = LabelPair::null();
  auto round = [&] {
    store.receipt(from2, none, 2);
    store.receipt(from3, none, 3);
    store.refresh();
  };
  for (int i = 0; i < 64; ++i) round();  // converge + warm every container
  std::uint64_t rounds = 0;
  const std::uint64_t allocs_before = util::allocations();
  for (auto _ : state) {
    round();
    ++rounds;
  }
  const std::uint64_t allocs = util::allocations() - allocs_before;
  state.counters["allocs_per_round"] = benchmark::Counter(
      rounds > 0 ? static_cast<double>(allocs) / static_cast<double>(rounds)
                 : 0);
  state.counters["labels_created"] =
      benchmark::Counter(static_cast<double>(store.stats().created));
  if (allocs != 0) {
    g_alloc_regression = true;
    state.SkipWithError("steady-state maintain() allocated on the heap");
  }
}
BENCHMARK(BM_PairStoreMaintainAlloc);

/// Steady-state TraceRecorder::record() with warmed ring segments must be a
/// pure slot write: zero heap allocations per event. The recorder is warmed
/// past several segment boundaries, clear()-rewound (which retains the
/// segments), and then driven through record/clear laps that stay within
/// the warmed high-water mark — the exact lifecycle of a sweep worker
/// recycling its recorder between jobs. Same loud CI failure on regression
/// as the other counting-new benches.
void BM_TraceRecordAlloc(benchmark::State& state) {
  scenario::TraceRecorder trace;
  const std::size_t warm_events = 3 * scenario::TraceRecorder::kSegmentEvents;
  for (std::size_t i = 0; i < warm_events; ++i) {
    trace.record(scenario::TraceKind::kPhaseStart, 1, i, i);
  }
  trace.clear();
  std::uint64_t events = 0;
  const std::uint64_t allocs_before = util::allocations();
  for (auto _ : state) {
    if (trace.size() == warm_events) trace.clear();  // ring lap boundary
    trace.record(scenario::TraceKind::kVsDeliver, 2, events, events * 31);
    ++events;
  }
  const std::uint64_t allocs = util::allocations() - allocs_before;
  benchmark::DoNotOptimize(trace.hash());
  state.counters["allocs_per_event"] = benchmark::Counter(
      events > 0 ? static_cast<double>(allocs) / static_cast<double>(events)
                 : 0);
  if (allocs != 0) {
    g_alloc_regression = true;
    state.SkipWithError("steady-state trace recording allocated on the heap");
  }
}
BENCHMARK(BM_TraceRecordAlloc);

// --- Wire encode micro-benches ----------------------------------------------

/// The per-field append pattern of every protocol encoder; Arg(1) adds the
/// single up-front reserve() the hot paths now use.
void BM_WriterFieldAppend(benchmark::State& state) {
  const bool reserve = state.range(0) != 0;
  const wire::Bytes blob(24, 0xAB);  // a typical state-slot payload
  std::size_t bytes = 0;
  for (auto _ : state) {
    wire::Writer w;
    if (reserve) w.reserve(16 * (1 + 4 + 4 + blob.size()));
    for (int i = 0; i < 16; ++i) {
      w.u8(static_cast<std::uint8_t>(i));
      w.u32(static_cast<std::uint32_t>(i));
      w.bytes(blob);
    }
    bytes += w.data().size();
    benchmark::DoNotOptimize(w.data().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WriterFieldAppend)->Arg(0)->Arg(1);

/// End-to-end frame encode (bundle of state slots inside a data frame) —
/// the hottest serialization path: every token retransmission runs it.
void BM_FrameEncodeBundle(benchmark::State& state) {
  std::vector<dlink::BundleItem> items;
  for (std::uint8_t p = 0; p < 6; ++p) {
    items.push_back(dlink::BundleItem{p, true, wire::Bytes(32, p)});
  }
  dlink::Frame f;
  f.kind = dlink::FrameKind::kData;
  f.link_sender = 1;
  f.label = 3;
  std::size_t bytes = 0;
  for (auto _ : state) {
    f.payload = dlink::encode_bundle(items);
    const wire::Bytes raw = f.encode();
    bytes += raw.size();
    benchmark::DoNotOptimize(raw.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FrameEncodeBundle);

}  // namespace
}  // namespace ssr::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ssr::bench::write_json("BENCH_scenarios.json");
  if (ssr::bench::g_alloc_regression) {
    std::fprintf(stderr,
                 "FAIL: the zero-allocation hot-path assertion tripped\n");
    return 1;
  }
  return 0;
}
