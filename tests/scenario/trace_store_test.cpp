// TraceRecorder's pooled ring-segment event store: indexing across segment
// boundaries, clear()-then-rerecord reuse (the "ring" contract the sweep
// workers and the alloc_tests gate lean on), hash stability across storage
// reorganizations, and segment recycling through the thread-local pool.
#include <gtest/gtest.h>

#include <cstdint>

#include "scenario/trace.hpp"

namespace ssr::scenario {
namespace {

// Records n synthetic events with distinguishable fields.
void fill(TraceRecorder& t, std::size_t n, std::uint64_t salt = 0) {
  for (std::size_t i = 0; i < n; ++i) {
    t.record(TraceKind::kPhaseStart, static_cast<NodeId>(i % 7),
             static_cast<std::uint64_t>(i) + salt, salt);
  }
}

TEST(TraceStore, IndexesAcrossSegmentBoundaries) {
  TraceRecorder t;
  const std::size_t n = TraceRecorder::kSegmentEvents * 3 + 17;
  fill(t, n);
  ASSERT_EQ(t.size(), n);
  for (std::size_t i : {std::size_t{0}, TraceRecorder::kSegmentEvents - 1,
                        TraceRecorder::kSegmentEvents,
                        2 * TraceRecorder::kSegmentEvents + 5, n - 1}) {
    EXPECT_EQ(t[i].a, i) << "event " << i;
    EXPECT_EQ(t[i].node, static_cast<NodeId>(i % 7));
  }
}

TEST(TraceStore, ClearRetainsAndRewrites) {
  TraceRecorder t;
  fill(t, TraceRecorder::kSegmentEvents + 100, /*salt=*/1);
  const std::uint64_t h1 = t.hash();

  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());

  // Re-record different content into the retained segments: no stale field
  // from the first fill may leak through (slots are recycled storage).
  fill(t, TraceRecorder::kSegmentEvents + 100, /*salt=*/2);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t[i].a, i + 2);
    EXPECT_EQ(t[i].b, 2u);
    EXPECT_EQ(t[i].when, 0u);  // unattached recorder: virtual time 0
  }
  EXPECT_NE(t.hash(), h1);
}

TEST(TraceStore, HashMatchesFreshRecorder) {
  // A warm, cleared recorder hashes identically to a brand-new one over the
  // same event stream — storage reuse is invisible to the determinism
  // machinery (this is what keeps sweep workers' recycled recorders honest).
  TraceRecorder warm;
  fill(warm, 2 * TraceRecorder::kSegmentEvents, /*salt=*/9);
  warm.clear();
  fill(warm, 300, /*salt=*/4);

  TraceRecorder fresh;
  fill(fresh, 300, /*salt=*/4);

  ASSERT_EQ(warm.size(), fresh.size());
  EXPECT_EQ(warm.hash(), fresh.hash());
}

TEST(TraceStore, SegmentsRecycleThroughThePool) {
  // Destroying a recorder returns its segments to the thread-local pool;
  // the next recorder on this thread grows pool-hit-first. Observable
  // contract here: heavy churn neither crashes nor corrupts events, and
  // hashes stay stable across the churn.
  std::uint64_t expected = 0;
  for (int lap = 0; lap < 10; ++lap) {
    TraceRecorder t;
    fill(t, 4 * TraceRecorder::kSegmentEvents + 31, /*salt=*/5);
    if (lap == 0) {
      expected = t.hash();
    } else {
      EXPECT_EQ(t.hash(), expected) << "lap " << lap;
    }
  }
}

TEST(TraceStore, EmptyHashIsBasis) {
  TraceRecorder t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.hash(), TraceRecorder::kFnvBasis);
}

}  // namespace
}  // namespace ssr::scenario
