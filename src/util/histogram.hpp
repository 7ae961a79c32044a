#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace ssr::util {

/// Fixed-footprint log-linear latency histogram (HdrHistogram-style).
///
/// Values (microseconds) land in one of 16 linear sub-buckets per power of
/// two, so the relative quantile error is bounded by 1/16 ≈ 6% across the
/// full 64-bit range — plenty for p50/p99 reporting — while record() is a
/// couple of shifts and an increment with zero allocation, making it safe
/// to call from scenario workload hot paths without disturbing the pinned
/// deterministic traces or the zero-allocation gates (`alloc_tests`).
class LatencyHistogram {
 public:
  void record(std::uint64_t us) {
    ++counts_[index_of(us)];
    ++count_;
    max_us_ = std::max(max_us_, us);
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t max() const { return max_us_; }

  /// Upper edge of the bucket holding the p-th percentile sample
  /// (p in [0,100]); 0 when empty.
  std::uint64_t percentile(double p) const {
    if (count_ == 0) return 0;
    const double want = p / 100.0 * static_cast<double>(count_);
    std::uint64_t target = static_cast<std::uint64_t>(want);
    if (static_cast<double>(target) < want) ++target;
    if (target == 0) target = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= target) return std::min(upper_edge(i), max_us_);
    }
    return max_us_;
  }

  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    max_us_ = std::max(max_us_, o.max_us_);
  }

  void reset() { *this = LatencyHistogram{}; }

 private:
  // 16 linear sub-buckets per power of two: values < 16 index directly;
  // larger values keep their top 4 mantissa bits.
  static constexpr std::uint32_t kSubBits = 4;
  static constexpr std::uint32_t kSub = 1u << kSubBits;  // 16
  // Majors cover bit widths 5..64 → (64 - kSubBits) rows above the linear
  // range.
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  static std::size_t index_of(std::uint64_t us) {
    if (us < kSub) return static_cast<std::size_t>(us);
    const std::uint32_t msb =
        static_cast<std::uint32_t>(std::bit_width(us));  // ≥ kSubBits + 1
    const std::uint32_t row = msb - kSubBits;            // ≥ 1
    const std::uint64_t sub = (us >> (msb - kSubBits - 1)) & (kSub - 1);
    return static_cast<std::size_t>(row * kSub + sub);
  }

  static std::uint64_t upper_edge(std::size_t idx) {
    if (idx < kSub) return static_cast<std::uint64_t>(idx);
    const std::uint64_t row = idx / kSub;  // ≥ 1
    const std::uint64_t sub = idx % kSub;
    // Inverse of index_of: bucket holds [base + sub·step, base + (sub+1)·step)
    // where base = 2^(row + kSubBits - 1), step = base / kSub.
    const std::uint64_t base = 1ULL << (row + kSubBits - 1);
    const std::uint64_t step = base >> kSubBits;
    return base + (sub + 1) * step - 1;
  }

  // Same width as count_: a uint32 here silently wraps after 2^32 samples
  // land in one bucket (long sweeps merge many runs), skewing every
  // percentile that walks past it while count() still reports the truth.
  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t max_us_ = 0;
};

}  // namespace ssr::util
