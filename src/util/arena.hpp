#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/assert.hpp"

namespace ssr::util {

/// Bump allocator with O(1) reset — the backing store for bounded scratch
/// work on otherwise zero-allocation paths (label minting, per-run scratch
/// lists). allocate() is a pointer bump inside the current block; reset()
/// rewinds every block without returning memory to the heap, so a
/// reset-per-use scratch arena touches the global allocator only while its
/// high-water mark is still growing. Individual deallocation is deliberately
/// absent: lifetimes end collectively at reset()/destruction, which is what
/// makes the fast path branch-light and fragmentation-free.
///
/// Not thread-safe; one arena belongs to one owner (the sweep engine gives
/// every world its own instances, so arenas never cross threads).
class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 4096;

  explicit Arena(std::size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes > 0 ? block_bytes : kDefaultBlockBytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  // Movable so owners (the stores) keep their implicit moves; outstanding
  // allocations stay valid — block ownership just changes hands.
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  /// Requests larger than the block size get a dedicated block — the
  /// oversize fallback — which reset() recycles like any other block.
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    SSR_ASSERT(align != 0 && (align & (align - 1)) == 0,
               "arena alignment must be a power of two");
    if (bytes == 0) bytes = 1;
    while (cur_ < blocks_.size()) {
      Block& b = blocks_[cur_];
      const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(b.data.get());
      const std::uintptr_t at = (base + off_ + (align - 1)) & ~(align - 1);
      if (at + bytes <= base + b.cap) {
        off_ = at + bytes - base;
        ++allocations_;
        return reinterpret_cast<void*>(at);
      }
      // Current block exhausted (or too small for this request): move on.
      ++cur_;
      off_ = 0;
    }
    // No existing block fits: grow. `align - 1` slack guarantees the aligned
    // start fits even when the block base is minimally aligned.
    const std::size_t need = bytes + align - 1;
    const std::size_t cap = need > block_bytes_ ? need : block_bytes_;
    // ssr-lint: allow(hot-path-alloc) arena growth: amortized away once the
    // high-water mark is reached; reset() keeps the block for reuse.
    blocks_.push_back(Block{std::make_unique<std::byte[]>(cap), cap});
    cur_ = blocks_.size() - 1;
    const std::uintptr_t base =
        reinterpret_cast<std::uintptr_t>(blocks_[cur_].data.get());
    const std::uintptr_t at = (base + (align - 1)) & ~(align - 1);
    off_ = at + bytes - base;
    ++allocations_;
    return reinterpret_cast<void*>(at);
  }

  /// Rewinds every block. All memory handed out so far is invalidated;
  /// nothing is returned to the heap, so the next fill re-uses the same
  /// storage allocation-free up to the previous high-water mark.
  void reset() {
    cur_ = 0;
    off_ = 0;
  }

  /// Heap blocks currently owned (growth telemetry for the tests).
  std::size_t blocks() const { return blocks_.size(); }
  /// Total bytes of backing storage owned.
  std::size_t capacity_bytes() const {
    std::size_t n = 0;
    for (const Block& b : blocks_) n += b.cap;
    return n;
  }
  /// allocate() calls served over the arena's lifetime.
  std::uint64_t allocations() const { return allocations_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t cap = 0;
  };

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::size_t cur_ = 0;   // block currently bumped into
  std::size_t off_ = 0;   // bump offset within blocks_[cur_]
  std::uint64_t allocations_ = 0;
};

/// Minimal STL allocator over an Arena, for short-lived scratch containers
/// (`std::vector<T, ArenaAllocator<T>>`) that are rebuilt after every
/// reset(). deallocate() is a no-op by design — storage is reclaimed
/// wholesale at Arena::reset() — so only use it for containers whose
/// lifetime ends before the owning arena rewinds.
template <class T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena& arena) : arena_(&arena) {}
  template <class U>
  ArenaAllocator(const ArenaAllocator<U>& o) : arena_(o.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) noexcept {}  // reclaimed at reset()

  Arena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ != b.arena_;
  }

 private:
  Arena* arena_;
};

}  // namespace ssr::util
