// Zero-allocation gates. This binary replaces global operator new
// (util/alloc_counter.hpp), so every gate samples the one process-wide
// counter around a warmed loop and any hidden allocation (closure,
// tombstone, payload copy, container growth) fails it, whichever layer
// added it.
#include <gtest/gtest.h>

#include "harness/world.hpp"
#include "label/label_store.hpp"
#include "net/channel.hpp"
#include "scenario/trace.hpp"
#include "util/alloc_counter.hpp"
#include "util/memo.hpp"
#include "wire/wire.hpp"

namespace ssr {
namespace {

class AllocGate : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!util::kAllocCounting) {
      GTEST_SKIP() << "allocations are not counted under TSan";
    }
  }
};

// A converged cluster runs nothing but maintenance: token rounds, failure-
// detector heartbeats, recSA/recMA/joining ticks, channel deliveries and
// retransmits. Once the pools, the event slab and the scheduler's node pool
// reach their high-water marks, none of it may touch the heap. The
// parameter is the cluster size and the fewest events its 2-s window must
// run; VS-on clusters still allocate and are not gated here.
struct Cluster {
  NodeId nodes;
  std::uint64_t min_events;
};

class SteadyState : public AllocGate,
                    public ::testing::WithParamInterface<Cluster> {};

TEST_P(SteadyState, ConvergedWorldAllocatesNothing) {
  const auto [nodes, min_events] = GetParam();
  harness::WorldConfig cfg;
  cfg.seed = 1;
  cfg.node.enable_vs = false;
  harness::World w(cfg);
  for (NodeId id = 1; id <= nodes; ++id) w.add_node(id);
  ASSERT_TRUE(w.run_until_converged(60 * kSec).has_value());
  w.run_for(1 * kSec);  // warm-up

  const std::uint64_t events_before = w.scheduler().events_executed();
  const std::uint64_t allocs_before = util::allocations();
  w.run_for(2 * kSec);
  const std::uint64_t allocs = util::allocations() - allocs_before;
  const std::uint64_t events = w.scheduler().events_executed() - events_before;

  EXPECT_GT(events, min_events);
  EXPECT_EQ(allocs, 0u) << "in " << events << " events";
}

INSTANTIATE_TEST_SUITE_P(Nodes, SteadyState,
                         ::testing::Values(Cluster{9, 100000},
                                           Cluster{5, 50000}),
                         [](const auto& info) {
                           return std::to_string(info.param.nodes) + "_nodes";
                         });

// Channel::send → delivery with a warmed pool: the payload buffer is pooled,
// the scheduler event comes from the slab, and no closure is built.
TEST_F(AllocGate, ChannelSendToDeliveryAllocatesNothing) {
  sim::Scheduler sched;
  net::ChannelConfig cfg;
  cfg.loss_probability = 0;
  cfg.duplicate_probability = 0;
  cfg.corrupt_probability = 0;
  cfg.capacity = 8;
  std::uint64_t delivered = 0;
  net::Channel ch(sched, Rng(1), cfg, 1, 2,
                  [&](net::Packet&) { ++delivered; });
  auto send_one = [&](std::uint64_t tag) {
    wire::Writer w;
    w.u64(0x1122334455667788ULL);
    w.u64(tag);
    w.u32(7);
    ch.send(w.take());
    sched.run_for(5 * kMsec);  // drain: max_delay is 2 ms
  };
  for (std::uint64_t i = 0; i < 64; ++i) send_one(i);  // warm pool + slab

  constexpr std::uint64_t kPackets = 10000;
  const std::uint64_t allocs_before = util::allocations();
  for (std::uint64_t i = 0; i < kPackets; ++i) send_one(i);
  const std::uint64_t allocs = util::allocations() - allocs_before;

  EXPECT_EQ(delivered, 64 + kPackets);
  EXPECT_EQ(allocs, 0u) << "in " << kPackets << " packets";
}

// PairStore::maintain(): once the store has adopted a stable maximal label
// and every peer's max entry sits merged in its creator's queue, a receipt
// and maintain round runs in place. The dedupe pass works in place, and
// duplicate merges and the adoption step compare before they assign. Most
// repeated receipts return through the memo without running maintain; the
// refresh() calls and every util::kRefresh-th receipt still run it.
TEST_F(AllocGate, PairStoreMaintainAllocatesNothing) {
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
  const std::uint64_t created = store.stats().created;
  const std::uint64_t skipped = store.stats().receipts_skipped;

  constexpr int kRounds = 10000;
  const std::uint64_t allocs_before = util::allocations();
  for (int i = 0; i < kRounds; ++i) round();
  const std::uint64_t allocs = util::allocations() - allocs_before;

  EXPECT_EQ(store.stats().created, created);  // adopted, never minted
  EXPECT_EQ(allocs, 0u) << "in " << kRounds << " rounds";
  // Each member's receipts skip kRefresh - 1 times in every kRefresh.
  EXPECT_NEAR(static_cast<double>(store.stats().receipts_skipped - skipped),
              2.0 * kRounds * (util::kRefresh - 1) / util::kRefresh, 2.0);
}

// TraceRecorder::record() with warmed ring segments is a slot write. The
// recorder is warmed past several segment boundaries, rewound by clear()
// (which keeps the segments), and then driven through record/clear laps
// within the warmed high-water mark: the lifecycle of a sweep worker
// recycling its recorder between jobs.
TEST_F(AllocGate, TraceRecordAllocatesNothing) {
  scenario::TraceRecorder trace;
  const std::size_t warm_events = 3 * scenario::TraceRecorder::kSegmentEvents;
  for (std::size_t i = 0; i < warm_events; ++i) {
    trace.record(scenario::TraceKind::kPhaseStart, 1, i, i);
  }
  trace.clear();

  const std::uint64_t events = 10 * warm_events;
  const std::uint64_t allocs_before = util::allocations();
  for (std::uint64_t i = 0; i < events; ++i) {
    if (trace.size() == warm_events) trace.clear();  // ring lap boundary
    trace.record(scenario::TraceKind::kVsDeliver, 2, i, i * 31);
  }
  const std::uint64_t allocs = util::allocations() - allocs_before;

  EXPECT_EQ(trace.size(), warm_events);
  EXPECT_EQ(allocs, 0u) << "in " << events << " events";
}

}  // namespace
}  // namespace ssr
