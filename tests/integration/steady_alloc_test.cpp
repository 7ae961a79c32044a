// Zero-allocation gate for the simulator's steady state. This binary
// replaces global operator new (util/alloc_counter.hpp), so it holds only
// this test.
#include <gtest/gtest.h>

#include "harness/world.hpp"
#include "util/alloc_counter.hpp"

namespace ssr::harness {
namespace {

// A converged cluster runs nothing but maintenance: token rounds, failure-
// detector heartbeats, recSA/recMA/joining ticks, channel deliveries and
// retransmits. Once the pools, the event slab and the scheduler's node pool
// reach their high-water marks, none of it may touch the heap.
TEST(SteadyState, ConvergedNineNodeWorldAllocatesNothing) {
  if (!util::kAllocCounting) {
    GTEST_SKIP() << "allocations are not counted under TSan";
  }
  WorldConfig cfg;
  cfg.seed = 1;
  cfg.node.enable_vs = false;
  World w(cfg);
  for (NodeId id = 1; id <= 9; ++id) w.add_node(id);
  ASSERT_TRUE(w.run_until_converged(60 * kSec).has_value());
  w.run_for(1 * kSec);  // warm-up

  const std::uint64_t events_before = w.scheduler().events_executed();
  const std::uint64_t allocs_before = util::allocations();
  w.run_for(2 * kSec);
  const std::uint64_t allocs = util::allocations() - allocs_before;
  const std::uint64_t events = w.scheduler().events_executed() - events_before;

  EXPECT_GT(events, 100000u);
  EXPECT_EQ(allocs, 0u) << "in " << events << " events";
}

}  // namespace
}  // namespace ssr::harness
