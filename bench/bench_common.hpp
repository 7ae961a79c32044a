#pragma once

// Shared helpers for the E1–E10 experiment benches. Every bench
// drives full-stack simulations and reports *virtual-time* metrics through
// benchmark counters; wall time only reflects simulator speed.

#include <benchmark/benchmark.h>

#include "harness/fault_injector.hpp"
#include "harness/monitors.hpp"
#include "harness/world.hpp"

namespace ssr::bench {

inline harness::WorldConfig world_config(std::uint64_t seed, bool vs = false) {
  harness::WorldConfig cfg;
  cfg.seed = seed;
  cfg.node.enable_vs = vs;
  return cfg;
}

/// Boots `n` nodes and converges; aborts the bench on failure.
inline void boot(harness::World& w, std::size_t n, benchmark::State& state) {
  for (NodeId id = 1; id <= n; ++id) w.add_node(id);
  if (!w.run_until_converged(300 * kSec)) {
    state.SkipWithError("bootstrap did not converge");
  }
}

inline double to_ms(SimTime t) { return static_cast<double>(t) / kMsec; }

/// Runs the world until `pred` holds; returns virtual time spent (ms) or
/// -1 on timeout.
template <class Pred>
double run_until(harness::World& w, SimTime timeout, Pred pred) {
  const SimTime start = w.scheduler().now();
  const SimTime deadline = start + timeout;
  while (w.scheduler().now() < deadline) {
    if (pred()) return to_ms(w.scheduler().now() - start);
    w.run_for(10 * kMsec);
  }
  return pred() ? to_ms(w.scheduler().now() - start) : -1.0;
}

}  // namespace ssr::bench
