// E4 — Lemma 3.18: the number of reconfiguration triggerings caused by
// stale recMA state is bounded by O(N²·cap). We plant the worst-case stale
// flags (noMaj = needReconf = true for every entry at every node) plus
// corrupted failure-detector counts, count the estab() calls until the
// system quiesces, and compare with the analytical bound.
#include "bench_common.hpp"

namespace ssr::bench {
namespace {

std::uint64_t total_triggers(harness::World& w) {
  std::uint64_t t = 0;
  for (NodeId id : w.alive()) {
    const auto& s = w.node(id).recma().stats();
    t += s.majority_loss_triggers + s.eval_conf_triggers;
  }
  return t;
}

void BM_StaleFlagTriggers(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t cap = static_cast<std::size_t>(state.range(1));
  double triggers = 0;
  std::uint64_t seed = 2100;
  for (auto _ : state) {
    harness::WorldConfig cfg = world_config(seed++);
    cfg.channel.capacity = cap;
    cfg.node.mux.link = dlink::LinkConfig::for_channel(cfg.channel);
    harness::World w(cfg);
    boot(w, n, state);
    const std::uint64_t before = total_triggers(w);
    harness::FaultInjector fi(w, seed);
    for (NodeId id = 1; id <= n; ++id) {
      fi.plant_recma_flags(id, true, true);
      fi.corrupt_fd(id);
    }
    w.run_for(200 * kSec);
    if (run_until(w, 400 * kSec, [&] { return w.converged(); }) < 0) {
      state.SkipWithError("did not restabilize");
      return;
    }
    triggers += static_cast<double>(total_triggers(w) - before);
  }
  const double bound = static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(cap);
  state.counters["stale_triggers"] =
      benchmark::Counter(triggers / static_cast<double>(state.iterations()));
  state.counters["paper_bound_N2cap"] = benchmark::Counter(bound);
}

BENCHMARK(BM_StaleFlagTriggers)
    ->ArgsProduct({{3, 5, 7}, {2, 4, 8}})
    ->ArgNames({"N", "cap"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace ssr::bench

BENCHMARK_MAIN();
