// E5 — Theorem 4.4: label creations before a global maximal label is
// established. From an arbitrary (corrupted) starting state the bound is
// O(N(N²+m)); after a reconfiguration, the rebuilt (emptied) structures
// bound creations by O(N²). The bench reports both measured counts next to
// the analytical bounds — the *shape* to check is the large gap between
// the two cases.
#include "bench_common.hpp"

namespace ssr::bench {
namespace {

bool labels_agree(harness::World& w) {
  std::optional<label::Label> common;
  auto cfg = w.common_config();
  if (!cfg) return false;
  for (NodeId id : *cfg) {
    if (!w.alive().contains(id)) continue;
    auto& lab = w.node(id).labeling();
    if (!lab.member() || !lab.local_max().legit()) return false;
    if (!common) {
      common = lab.local_max().main();
    } else if (!(*common == lab.local_max().main())) {
      return false;
    }
  }
  return common.has_value();
}

std::uint64_t total_creations(harness::World& w) {
  std::uint64_t t = 0;
  for (NodeId id : w.alive()) {
    t += w.node(id).labeling().store().stats().created;
  }
  return t;
}

void BM_LabelCreationsArbitraryStart(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  double creations = 0;
  std::uint64_t seed = 2500;
  for (auto _ : state) {
    harness::World w(world_config(seed++));
    boot(w, n, state);
    if (run_until(w, 300 * kSec, [&] { return labels_agree(w); }) < 0) {
      state.SkipWithError("labels did not converge");
      return;
    }
    // Corrupt every store with arbitrary labels by every member.
    Rng rng(seed * 17);
    const std::uint64_t before = total_creations(w);
    for (NodeId id = 1; id <= n; ++id) {
      auto& store = w.node(id).labeling().store();
      for (NodeId j = 1; j <= n; ++j) {
        label::Label junk = label::Label::next_label(j, {}, rng);
        store.inject_max(j, label::LabelPair::of(junk));
        store.inject_stored(j, label::LabelPair::of(junk));
      }
    }
    if (run_until(w, 600 * kSec, [&] { return labels_agree(w); }) < 0) {
      state.SkipWithError("labels did not reconverge");
      return;
    }
    creations += static_cast<double>(total_creations(w) - before);
  }
  const double m = 6.0;  // channel capacity in label pairs (cap·2 links)
  state.counters["creations"] =
      benchmark::Counter(creations / static_cast<double>(state.iterations()));
  state.counters["paper_bound_N(N2+m)"] = benchmark::Counter(
      static_cast<double>(n) * (static_cast<double>(n * n) + m));
}

BENCHMARK(BM_LabelCreationsArbitraryStart)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->ArgName("N")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void BM_LabelCreationsAfterReconfig(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  double creations = 0;
  std::uint64_t seed = 2900;
  for (auto _ : state) {
    harness::World w(world_config(seed++));
    boot(w, n, state);
    if (run_until(w, 300 * kSec, [&] { return labels_agree(w); }) < 0) {
      state.SkipWithError("labels did not converge");
      return;
    }
    const std::uint64_t before = total_creations(w);
    IdSet target;
    for (NodeId id = 1; id < n; ++id) target.insert(id);
    w.node(1).recsa().estab(target);
    if (run_until(w, 600 * kSec, [&] {
          auto c = w.common_config();
          return c && *c == target && labels_agree(w);
        }) < 0) {
      state.SkipWithError("post-reconfig labels did not converge");
      return;
    }
    creations += static_cast<double>(total_creations(w) - before);
  }
  state.counters["creations"] =
      benchmark::Counter(creations / static_cast<double>(state.iterations()));
  state.counters["paper_bound_N2"] =
      benchmark::Counter(static_cast<double>(n) * static_cast<double>(n));
}

BENCHMARK(BM_LabelCreationsAfterReconfig)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->ArgName("N")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace ssr::bench

BENCHMARK_MAIN();
