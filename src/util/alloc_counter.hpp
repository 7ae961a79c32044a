#pragma once

// Counting global operator new for the zero-allocation gates: every
// operator new in the process bumps one counter, so a gate that samples it
// around a warmed loop catches any hidden allocation (closure, tombstone,
// payload copy, container growth) no matter which layer snuck it in.
//
// Include this header in exactly one translation unit of a binary: it
// replaces the global allocation functions, which cannot be inline.
//
// Counting is disabled under ThreadSanitizer, which interposes on the
// allocator itself: replacing global operator new there would fight its
// interceptors. Gates check kAllocCounting and skip themselves there.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_THREAD__)
#define SSR_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SSR_TSAN_BUILD 1
#endif
#endif
#ifndef SSR_TSAN_BUILD
#define SSR_TSAN_BUILD 0
#endif

namespace ssr::util {

/// False under TSan, where allocations() stays 0.
inline constexpr bool kAllocCounting = !SSR_TSAN_BUILD;

inline std::atomic<std::uint64_t> g_alloc_count{0};

/// operator new calls in this process so far.
inline std::uint64_t allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace ssr::util

#if !SSR_TSAN_BUILD
// The replacements pair malloc with free by design; once gcc inlines a
// delete into its caller it would flag free() on an operator-new pointer.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace ssr::util::detail {
inline void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace ssr::util::detail

void* operator new(std::size_t n) {
  return ssr::util::detail::counted_alloc(n);
}
void* operator new[](std::size_t n) {
  return ssr::util::detail::counted_alloc(n);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ssr::util::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ssr::util::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // !SSR_TSAN_BUILD
