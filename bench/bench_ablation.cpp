// E10 — ablation studies of design choices:
//  (a) the one-phase-ahead barrier relaxation (deviation #4 in README,
//      "Deviations from the paper") — disabling it restores the paper's
//      literal unison tests, which under the coalescing token link degrade
//      delicate replacements into brute-force resets;
//  (b) the snap-stabilizing link cleaning (strict_clean) — disabling it lets
//      freshly booted processors consume stale channel packets;
//  (c) the failure detector's Θ — the accuracy/latency trade-off for crash
//      detection driving reconfiguration speed.
#include "bench_common.hpp"

namespace ssr::bench {
namespace {

void BM_BarrierRelaxationAblation(benchmark::State& state) {
  const bool relaxed = state.range(0) != 0;
  double resets = 0;
  double completed = 0;
  std::uint64_t seed = 7100;
  for (auto _ : state) {
    harness::WorldConfig cfg = world_config(seed++);
    cfg.node.recsa.relaxed_barrier = relaxed;
    harness::World w(cfg);
    boot(w, 5, state);
    std::uint64_t resets_before = 0;
    for (NodeId id = 1; id <= 5; ++id) {
      resets_before += w.node(id).recsa().stats().resets_started;
    }
    // Five delicate replacements back to back.
    for (int round = 0; round < 5; ++round) {
      IdSet target;
      for (NodeId id = 1; id <= 5; ++id) {
        if (id != static_cast<NodeId>(1 + (round % 5))) target.insert(id);
      }
      for (NodeId id = 1; id <= 5; ++id) {
        if (w.node(id).recsa().estab(target)) break;
      }
      if (run_until(w, 100 * kSec, [&] { return w.converged(); }) >= 0) {
        completed += 1;
      }
    }
    std::uint64_t resets_after = 0;
    for (NodeId id = 1; id <= 5; ++id) {
      resets_after += w.node(id).recsa().stats().resets_started;
    }
    resets += static_cast<double>(resets_after - resets_before);
  }
  state.counters["brute_resets"] =
      benchmark::Counter(resets / static_cast<double>(state.iterations()));
  state.counters["replacements_ok"] =
      benchmark::Counter(completed / static_cast<double>(state.iterations()));
}

BENCHMARK(BM_BarrierRelaxationAblation)
    ->Arg(1)  // relaxed (default)
    ->Arg(0)  // strict (paper-literal)
    ->ArgName("relaxed")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void BM_StrictCleanAblation(benchmark::State& state) {
  const bool strict = state.range(0) != 0;
  double stale_blocked = 0;
  double contaminated_resets = 0;
  double converged = 0;
  std::uint64_t seed = 7500;
  for (auto _ : state) {
    harness::WorldConfig cfg = world_config(seed++);
    cfg.node.mux.link.strict_clean = strict;
    harness::World w(cfg);
    // Protocol-shaped stale packets sit in the channels *before* the
    // processors boot: forged recSA states claiming a bogus configuration,
    // riding valid data frames — exactly what the snap-stabilizing cleaning
    // must keep a fresh processor from consuming.
    reconf::RecSAMessage bogus;
    bogus.fd = IdSet{1, 2, 3, 4};
    bogus.part = IdSet{1, 2, 3, 4};
    bogus.config = reconf::ConfigValue::set(IdSet{90, 91});
    wire::Bytes bundle = dlink::encode_bundle(
        {{dlink::kPortRecSA, true, bogus.encode()}});
    for (NodeId a = 1; a <= 4; ++a) {
      for (NodeId b = 1; b <= 4; ++b) {
        if (a == b) continue;
        for (std::uint8_t lbl = 0; lbl < 3; ++lbl) {
          dlink::Frame f;
          f.kind = dlink::FrameKind::kData;
          f.link_sender = a;
          f.label = lbl;
          f.payload = bundle;
          w.network().channel(a, b).inject_packet(f.encode());
        }
      }
    }
    for (NodeId id = 1; id <= 4; ++id) w.add_node(id);
    if (w.run_until_converged(400 * kSec)) converged += 1;
    for (NodeId a = 1; a <= 4; ++a) {
      auto& n = w.node(a);
      for (NodeId b : n.mux().peers()) {
        const auto* link = n.mux().link(b);
        if (link) {
          stale_blocked += static_cast<double>(link->stats().stale_discarded);
        }
      }
      contaminated_resets +=
          static_cast<double>(n.recsa().stats().stale_detected[2]);
    }
  }
  state.counters["stale_blocked"] = benchmark::Counter(
      stale_blocked / static_cast<double>(state.iterations()));
  state.counters["type2_detections"] = benchmark::Counter(
      contaminated_resets / static_cast<double>(state.iterations()));
  state.counters["converged"] =
      benchmark::Counter(converged / static_cast<double>(state.iterations()));
}

BENCHMARK(BM_StrictCleanAblation)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("strict")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void BM_ThetaAblation(benchmark::State& state) {
  const std::uint64_t theta = static_cast<std::uint64_t>(state.range(0));
  double detect_ms = 0;
  std::uint64_t seed = 7900;
  for (auto _ : state) {
    harness::WorldConfig cfg = world_config(seed++);
    cfg.node.fd.theta = theta;
    harness::World w(cfg);
    boot(w, 4, state);
    w.crash(4);
    const SimTime crash_time = w.scheduler().now();
    const double ms = run_until(w, 900 * kSec, [&] {
      for (NodeId id = 1; id <= 3; ++id) {
        if (w.node(id).failure_detector().trusted().contains(4)) return false;
      }
      return true;
    });
    if (ms < 0) {
      state.SkipWithError("crash never detected");
      return;
    }
    detect_ms += to_ms(w.scheduler().now() - crash_time);
  }
  state.counters["detect_sim_ms"] =
      benchmark::Counter(detect_ms / static_cast<double>(state.iterations()));
}

BENCHMARK(BM_ThetaAblation)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->ArgName("theta")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace ssr::bench

BENCHMARK_MAIN();
