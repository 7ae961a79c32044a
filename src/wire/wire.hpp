#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/id_set.hpp"
#include "util/types.hpp"

namespace ssr::wire {

using Bytes = std::vector<std::uint8_t>;

/// CRC-32C (Castagnoli: reflected polynomial 0x82F63B78, init and xorout
/// 0xFFFFFFFF) over a byte range. The end-to-end frame integrity check:
/// structural decode validation catches truncation and garbage, but a bit
/// flip inside a value field yields a VALID message with different
/// semantics — scenario_fuzz found exactly that as a virtual-synchrony
/// violation under corrupt_prob + the adversarial scheduler. Every
/// data-link frame is sealed with this checksum; it detects every
/// single-bit error and every burst of up to 32 bits.
///
/// Frames are sealed and verified on every retransmission, so the seal
/// runs on almost every packet. On x86-64 CPUs with SSE4.2 it runs the
/// `crc32` instruction over 8-byte words; elsewhere a portable slice-by-8
/// table loop. The choice is made once per process and both paths return
/// identical values.
std::uint32_t crc32c(const std::uint8_t* data, std::size_t len);

/// The portable slice-by-8 implementation behind crc32c().
std::uint32_t crc32c_portable(const std::uint8_t* data, std::size_t len);

using Crc32cFn = std::uint32_t (*)(const std::uint8_t*, std::size_t);
/// The SSE4.2 implementation behind crc32c(), or nullptr when this CPU or
/// target has none. Exposed so tests can check it against the portable one.
Crc32cFn crc32c_hardware();

/// Freelist of payload buffers for the simulator/transport hot path.
///
/// Every protocol message lives in a `Bytes` vector that is born in a
/// Writer, travels through a channel event, and dies right after delivery.
/// Recycling those vectors through a thread-local freelist makes the
/// steady-state packet path allocation-free: Writer::Writer() acquires,
/// Channel/Network release after delivery (and on loss, overflow and
/// cancellation), and the capacity sticks to the buffer across laps.
///
/// Buffers the pool creates all start with kBufferCapacity bytes, so a
/// pooled buffer need not grow when it changes hands between message kinds,
/// and an empty freelist refills with kRefill of them at once, so the last
/// growth of the population after convergence draws on spares instead of
/// the allocator.
///
/// The pool is an optimization, never an owner: a buffer that is not
/// released simply frees normally. Nothing behavioural depends on pool
/// state — contents are only ever read inside [0, size()) and every
/// acquired buffer starts at size 0 — so recycling cannot perturb the
/// deterministic replay executions.
class BufferPool {
 public:
  /// Buffers kept in the freelist; beyond this, release() just frees.
  static constexpr std::size_t kMaxPooled = 1024;
  /// Capacity of each buffer the pool creates: room for every steady-state
  /// message of a 9-node VS-off cluster (its largest, a token-link data
  /// frame, is 273 bytes). A larger message grows its buffer, which keeps
  /// the larger capacity from then on.
  static constexpr std::size_t kBufferCapacity = 512;
  /// Buffers created per refill of an empty freelist. Measured on a
  /// converged 9-node VS-off cluster, seeds 1-8: 1 s after convergence the
  /// population is 624-629 buffers, and it still grows by up to 5 before
  /// settling at 628-631. Over the next 2 s, creating buffers one at a time
  /// allocates on five of those seeds, refills of 8 or 16 on two, and
  /// refills of 32 on none.
  static constexpr std::size_t kRefill = 32;
  /// Buffers with more capacity than this are not retained (a rare giant
  /// message must not pin its footprint forever).
  static constexpr std::size_t kMaxRetainedCapacity = 64 * 1024;

  /// The calling thread's pool. The whole node stack is single-threaded
  /// (simulator and UDP loop alike), so this is one pool per world/process
  /// in practice.
  static BufferPool& local();

  /// An empty buffer, reusing a pooled allocation when one is available.
  Bytes acquire();
  /// Returns a buffer to the pool (cleared, capacity kept). Safe to call
  /// with moved-from or capacity-less vectors; they are dropped.
  void release(Bytes&& b);

  struct Stats {
    std::uint64_t acquired = 0;  ///< acquire() calls
    std::uint64_t reused = 0;    ///< acquires served from the freelist
    std::uint64_t released = 0;  ///< buffers accepted back
    std::uint64_t dropped = 0;   ///< releases declined (full pool / giant)
  };
  const Stats& stats() const { return stats_; }

  std::size_t size() const { return free_.size(); }

 private:
  void refill();

  std::vector<Bytes> free_;
  std::size_t fresh_ = 0;  // refill-created buffers at the bottom of free_
  Stats stats_;
};

/// Serializer producing the bounded wire format used by every protocol
/// message. The format is explicit (little-endian fixed ints + length
/// prefixes) so that messages have a provable size bound and byte-level
/// fault injection exercises the same decode paths as real corruption.
///
/// The output buffer is acquired from the thread's BufferPool; take() hands
/// it to the caller (who releases it back once the message dies) and an
/// untaken buffer returns to the pool on destruction.
class Writer {
 public:
  Writer() : out_(BufferPool::local().acquire()) {}
  ~Writer() { BufferPool::local().release(std::move(out_)); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Pre-allocates room for `n` more bytes. Hot encoders (frames, bundles,
  /// transport envelopes) know their size up front; reserving once replaces
  /// the per-field geometric growth of the output vector.
  void reserve(std::size_t n) { out_.reserve(out_.size() + n); }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void boolean(bool v);
  void node_id(NodeId v) { u32(v); }
  /// Length-prefixed id set (u16 count).
  void id_set(const IdSet& s);
  /// Length-prefixed raw bytes (u32 count).
  void bytes(const Bytes& b);
  void str(const std::string& s);

  /// Appends the crc32c of everything written so far. Must be the last
  /// write; the matching decoder reads the checksum as its final u32 field
  /// and recomputes it over the preceding bytes.
  void seal() { u32(crc32c(out_.data(), out_.size())); }

  const Bytes& data() const { return out_; }
  Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

/// Deserializer. Decoding arbitrary (possibly corrupted) byte strings must
/// never crash: every accessor reports failure through ok() and returns a
/// default value after the first malformed field. Callers check ok() once at
/// the end of a message decode.
class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data) {}
  /// The reader keeps a reference: a temporary buffer would dangle.
  Reader(Bytes&&) = delete;

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  bool boolean();
  NodeId node_id() { return u32(); }
  IdSet id_set();
  Bytes bytes();
  std::string str();

  /// True iff no read ran past the buffer or hit a malformed field.
  bool ok() const { return ok_; }
  /// True iff the whole buffer was consumed (strict decoders require this).
  bool exhausted() const { return pos_ == data_.size(); }

  /// Caps accepted collection sizes; corrupted length prefixes otherwise
  /// cause pathological allocations.
  static constexpr std::size_t kMaxElements = 1 << 16;

 private:
  bool take(std::size_t n);

  const Bytes& data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ssr::wire
