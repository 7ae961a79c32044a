#include "wire/wire.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define SSR_CRC32C_SSE42 1
#else
#define SSR_CRC32C_SSE42 0
#endif

namespace ssr::wire {

namespace {

constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;  // Castagnoli, reflected

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic byte-at-a-time table; tables[k][b] is the CRC
// contribution of byte b followed by k zero bytes, which lets the
// slice-by-8 loop fold eight independent lookups per 8-byte step.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int i = 0; i < 8; ++i) c = (c >> 1) ^ (kCrc32cPoly & (0u - (c & 1u)));
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// Byte-wise little-endian load: correct on any host, and a single
// unaligned move where the host is little-endian.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

#if SSR_CRC32C_SSE42
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const std::uint8_t* data, std::size_t len) {
  std::uint64_t crc = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data, sizeof word);  // x86-64 is little-endian
    crc = _mm_crc32_u64(crc, word);
  }
  auto c = static_cast<std::uint32_t>(crc);
  for (; len > 0; ++data, --len) c = _mm_crc32_u8(c, *data);
  return ~c;
}
#endif

}  // namespace

std::uint32_t crc32c_portable(const std::uint8_t* data, std::size_t len) {
  const CrcTables& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = crc ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFF];
  return ~crc;
}

Crc32cFn crc32c_hardware() {
#if SSR_CRC32C_SSE42
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return nullptr;
}

std::uint32_t crc32c(const std::uint8_t* data, std::size_t len) {
  // Chosen once; a const function pointer is safe to share across the
  // sweep engine's worker threads.
  static const Crc32cFn impl = [] {
    const Crc32cFn hw = crc32c_hardware();
    return hw != nullptr ? hw : crc32c_portable;
  }();
  return impl(data, len);
}

BufferPool& BufferPool::local() {
  thread_local BufferPool pool;
  return pool;
}

Bytes BufferPool::acquire() {
  ++stats_.acquired;
  if (free_.empty()) refill();
  // Refill-created buffers sit under every released one, so handing one out
  // is a miss, as creating a fresh buffer on demand would be.
  if (free_.size() > fresh_) {
    ++stats_.reused;
  } else {
    --fresh_;
  }
  Bytes b = std::move(free_.back());
  free_.pop_back();
  return b;
}

void BufferPool::refill() {
  free_.reserve(kMaxPooled);  // once per thread: release() never outgrows it
  for (std::size_t i = 0; i < kRefill; ++i) {
    Bytes b;
    b.reserve(kBufferCapacity);
    // ssr-lint: allow(hot-path-alloc): one batch per freelist underflow,
    // bounded by the peak buffer population.
    free_.push_back(std::move(b));
  }
  fresh_ = kRefill;
}

void BufferPool::release(Bytes&& b) {
  if (b.capacity() == 0 || b.capacity() > kMaxRetainedCapacity ||
      free_.size() >= kMaxPooled) {
    ++stats_.dropped;
    return;  // let it free normally
  }
  ++stats_.released;
  b.clear();
  // ssr-lint: allow(hot-path-alloc): freelist growth is bounded by kMaxPooled.
  free_.push_back(std::move(b));
}

// ssr-lint: allow(hot-path-alloc): amortized into the pooled buffer's sticky capacity
// (allocs/packet = 0 at steady state, asserted by alloc_tests).
void Writer::u8(std::uint8_t v) { out_.push_back(v); }

// Multi-byte little-endian fields grow the buffer once and store through a
// raw pointer: one capacity check per field instead of one per byte (these
// run per field of every frame the simulator moves).

void Writer::u16(std::uint16_t v) {
  const std::size_t n = out_.size();
  out_.resize(n + 2);  // ssr-lint: allow(hot-path-alloc): pooled capacity
  std::uint8_t* p = out_.data() + n;
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void Writer::u32(std::uint32_t v) {
  const std::size_t n = out_.size();
  out_.resize(n + 4);  // ssr-lint: allow(hot-path-alloc): pooled capacity
  std::uint8_t* p = out_.data() + n;
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void Writer::u64(std::uint64_t v) {
  const std::size_t n = out_.size();
  out_.resize(n + 8);  // ssr-lint: allow(hot-path-alloc): pooled capacity
  std::uint8_t* p = out_.data() + n;
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::id_set(const IdSet& s) {
  // One growth for the whole set: id sets ride in every protocol
  // broadcast, so the per-field resize adds up.
  const std::size_t count = s.size();
  const std::size_t n = out_.size();
  out_.resize(n + 2 + 4 * count);  // ssr-lint: allow(hot-path-alloc): pooled capacity
  std::uint8_t* p = out_.data() + n;
  *p++ = static_cast<std::uint8_t>(count);
  *p++ = static_cast<std::uint8_t>(count >> 8);
  for (NodeId id : s) {
    for (int i = 0; i < 4; ++i) {
      *p++ = static_cast<std::uint8_t>(id >> (8 * i));
    }
  }
}

void Writer::bytes(const Bytes& b) {
  u32(static_cast<std::uint32_t>(b.size()));
  out_.insert(out_.end(), b.begin(), b.end());  // ssr-lint: allow(hot-path-alloc): pooled capacity
}

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());  // ssr-lint: allow(hot-path-alloc): pooled capacity
}

bool Reader::take(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (!take(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

bool Reader::boolean() {
  std::uint8_t v = u8();
  if (v > 1) ok_ = false;  // corrupted flag byte
  return v == 1;
}

IdSet Reader::id_set() {
  const std::uint16_t n = u16();
  // A truncated set fails before any id is read, like any short field.
  if (!ok_ || n > kMaxElements || !take(4 * std::size_t{n})) {
    ok_ = false;
    return {};
  }
  // Decoded straight into the set: sorted and deduplicated in place, so an
  // unsorted or duplicated set on the wire reads back exactly as before.
  return IdSet::collect(n, [this] { return node_id(); });
}

Bytes Reader::bytes() {
  std::uint32_t n = u32();
  if (!ok_ || n > data_.size() - pos_) {
    ok_ = false;
    return {};
  }
  // Pooled so the per-frame payload slice on the decode path rides the
  // same freelist as the encode/transport buffers.
  Bytes out = BufferPool::local().acquire();
  // ssr-lint: allow(hot-path-alloc): assign into a pooled buffer's sticky capacity.
  out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
             data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

const std::uint8_t* Reader::bytes_in_place(std::size_t& n) {
  n = 0;
  const std::uint32_t len = u32();
  if (!ok_ || len > data_.size() - pos_) {
    ok_ = false;
    return nullptr;
  }
  const std::uint8_t* at = data_.data() + pos_;
  pos_ += len;
  n = len;
  return at;
}

std::string Reader::str() {
  std::uint32_t n = u32();
  if (!ok_ || n > data_.size() - pos_) {
    ok_ = false;
    return {};
  }
  std::string out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace ssr::wire
