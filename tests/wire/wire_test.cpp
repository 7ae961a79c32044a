#include "wire/wire.hpp"

#include <gtest/gtest.h>

#include <string>

#include "dlink/frame.hpp"
#include "util/rng.hpp"

namespace ssr::wire {
namespace {

TEST(Wire, ScalarRoundtrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.boolean(true);
  w.boolean(false);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, IdSetRoundtrip) {
  Writer w;
  w.id_set(IdSet{7, 3, 100000});
  Reader r(w.data());
  EXPECT_EQ(r.id_set(), (IdSet{3, 7, 100000}));
  EXPECT_TRUE(r.ok());
}

TEST(Wire, EmptyIdSetRoundtrip) {
  Writer w;
  w.id_set(IdSet{});
  Reader r(w.data());
  EXPECT_EQ(r.id_set(), IdSet{});
  EXPECT_TRUE(r.ok());
}

// A set on the wire need not be sorted or duplicate-free (a corrupted or
// foreign sender): it decodes to the normalized set, inline and spilled
// sizes alike, and consumes exactly its bytes.
TEST(Wire, IdSetDecodeNormalizesUnsortedAndDuplicatedIds) {
  for (const std::vector<NodeId>& ids :
       {std::vector<NodeId>{9, 2, 2, 7, 9},
        std::vector<NodeId>{40, 3, 39, 3, 38, 37, 36, 35, 34, 33, 32, 31, 30,
                            29, 28, 27, 26, 25, 24, 23, 22, 21, 40}}) {
    Writer w;
    w.u16(static_cast<std::uint16_t>(ids.size()));
    for (NodeId id : ids) w.node_id(id);
    w.u8(0x5A);
    Reader r(w.data());
    EXPECT_EQ(r.id_set(), IdSet::from_vector(ids));
    EXPECT_EQ(r.u8(), 0x5A);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.exhausted());
  }
}

// A set whose count promises more ids than the buffer holds fails the
// reader and yields the empty set.
TEST(Wire, TruncatedIdSetFails) {
  Writer w;
  w.u16(3);
  w.node_id(1);
  w.node_id(2);
  Reader r(w.data());
  EXPECT_EQ(r.id_set(), IdSet{});
  EXPECT_FALSE(r.ok());
}

TEST(Wire, BytesAndStringRoundtrip) {
  Writer w;
  w.bytes(Bytes{1, 2, 3});
  w.str("hello");
  Reader r(w.data());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, ReadPastEndFails) {
  Writer w;
  w.u16(1);
  Reader r(w.data());
  r.u32();  // longer than the buffer
  EXPECT_FALSE(r.ok());
}

TEST(Wire, FailureIsSticky) {
  Writer w;
  w.u8(1);
  Reader r(w.data());
  r.u64();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0);  // still failing, returns default
  EXPECT_FALSE(r.ok());
}

TEST(Wire, CorruptedBoolFlagged) {
  Bytes raw{7};  // neither 0 nor 1
  Reader r(raw);
  r.boolean();
  EXPECT_FALSE(r.ok());
}

TEST(Wire, TruncatedBytesLengthFails) {
  Writer w;
  w.u32(1000);  // claims 1000 bytes follow — they do not
  Reader r(w.data());
  r.bytes();
  EXPECT_FALSE(r.ok());
}

TEST(Wire, ExhaustedDetectsTrailingGarbage) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.data());
  r.u8();
  EXPECT_FALSE(r.exhausted());
  r.u8();
  EXPECT_TRUE(r.exhausted());
}

// Decoding arbitrary garbage must never crash — the fuzz sweep feeds random
// buffers through every accessor.
TEST(Wire, RandomGarbageNeverCrashes) {
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    Reader r(junk);
    r.u8();
    r.id_set();
    r.bytes();
    r.u64();
    r.str();
    // ok() may be anything; the point is memory safety.
  }
  SUCCEED();
}

// --- Frame seal (CRC-32C) ---------------------------------------------------

// Bit-at-a-time CRC-32C straight from the definition: the reference both
// fast paths are checked against.
std::uint32_t crc32c_bitwise(const std::uint8_t* data, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

// RFC 3720 (iSCSI) appendix B.4 test vectors plus the customary check value.
TEST(Crc32c, KnownAnswers) {
  const std::string check = "123456789";
  Bytes zeros(32, 0x00);
  Bytes ones(32, 0xFF);
  Bytes up(32);
  Bytes down(32);
  for (std::size_t i = 0; i < 32; ++i) {
    up[i] = static_cast<std::uint8_t>(i);
    down[i] = static_cast<std::uint8_t>(31 - i);
  }
  struct Case {
    const std::uint8_t* data;
    std::size_t len;
    std::uint32_t want;
  };
  const Case cases[] = {
      {reinterpret_cast<const std::uint8_t*>(check.data()), check.size(),
       0xE3069283u},
      {zeros.data(), zeros.size(), 0x8A9136AAu},
      {ones.data(), ones.size(), 0x62A8AB43u},
      {up.data(), up.size(), 0x46DD794Eu},
      {down.data(), down.size(), 0x113FDB5Cu},
      {nullptr, 0, 0x00000000u},
  };
  const Crc32cFn hw = crc32c_hardware();
  for (const Case& c : cases) {
    EXPECT_EQ(crc32c(c.data, c.len), c.want) << "len " << c.len;
    EXPECT_EQ(crc32c_portable(c.data, c.len), c.want) << "len " << c.len;
    EXPECT_EQ(crc32c_bitwise(c.data, c.len), c.want) << "len " << c.len;
    if (hw != nullptr) {
      EXPECT_EQ(hw(c.data, c.len), c.want) << "len " << c.len;
    }
  }
}

// Every length 0..300 at every start offset 0..7 covers each word-loop /
// tail split and every misalignment of both fast paths.
TEST(Crc32c, PathsAgreeAtEveryLengthAndAlignment) {
  Rng rng(12);
  Bytes buf(300 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  const Crc32cFn hw = crc32c_hardware();
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint8_t* p = buf.data() + off;
      const std::uint32_t want = crc32c_bitwise(p, len);
      SCOPED_TRACE(testing::Message() << "off " << off << " len " << len);
      ASSERT_EQ(crc32c_portable(p, len), want);
      ASSERT_EQ(crc32c(p, len), want);
      if (hw != nullptr) {
        ASSERT_EQ(hw(p, len), want);
      }
    }
  }
  if (hw == nullptr) GTEST_SKIP() << "no hardware CRC-32C on this CPU";
}

// A sealed 190-byte data frame must reject every single-bit error and
// bursts of every length up to 32 bits at every position, the seal itself
// included: the guarantee CRC-32C gives for all such bursts, and the one
// the protocol's corruption handling relies on. Interiors of bursts longer
// than two bits are sampled (all-ones, empty, random), not enumerated.
TEST(Crc32c, FrameDecodeRejectsSingleBitFlipsAndBurstsUpTo32Bits) {
  Rng rng(190);
  dlink::Frame frame;
  frame.kind = dlink::FrameKind::kData;
  frame.link_sender = 7;
  frame.label = 3;
  frame.payload.resize(176);
  for (auto& b : frame.payload) b = static_cast<std::uint8_t>(rng.next_u64());
  Bytes raw = frame.encode();
  ASSERT_EQ(raw.size(), 190u);
  ASSERT_TRUE(dlink::Frame::decode(raw).has_value());

  const std::size_t bits = raw.size() * 8;
  const auto flip = [&raw](std::size_t bit) {
    raw[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  };
  // Applies `pattern` (bit i of the burst = bit i of pattern) at `start`,
  // decodes, and restores the frame.
  std::size_t tried = 0;
  std::size_t accepted = 0;
  const auto try_burst = [&](std::size_t start, std::size_t len,
                             std::uint32_t pattern) {
    for (std::size_t i = 0; i < len; ++i) {
      if ((pattern >> i) & 1u) flip(start + i);
    }
    ++tried;
    if (dlink::Frame::decode(raw).has_value()) {
      ++accepted;
      ADD_FAILURE() << "accepted burst at bit " << start << " len " << len
                    << " pattern " << std::hex << pattern;
    }
    for (std::size_t i = 0; i < len; ++i) {
      if ((pattern >> i) & 1u) flip(start + i);
    }
  };
  for (std::size_t start = 0; start < bits; ++start) {
    try_burst(start, 1, 1u);
    for (std::size_t len = 2; len <= 32 && start + len <= bits; ++len) {
      // A burst of length len has both end bits set; its interior is
      // arbitrary.
      const std::uint32_t ends = 1u | (1u << (len - 1));
      const std::uint32_t all = len == 32 ? ~0u : (1u << len) - 1;
      try_burst(start, len, all);
      try_burst(start, len, ends);
      const auto interior = static_cast<std::uint32_t>(rng.next_u64());
      try_burst(start, len, (interior & all) | ends);
      if (accepted > 10) return;  // the failure is clear; spare the log
    }
  }
  EXPECT_EQ(accepted, 0u) << "of " << tried << " corrupted frames";
  EXPECT_TRUE(dlink::Frame::decode(raw).has_value());  // restored intact
}

// --- BufferPool -------------------------------------------------------------

TEST(BufferPool, RecyclesCapacity) {
  BufferPool& pool = BufferPool::local();
  Bytes b = pool.acquire();
  b.reserve(512);
  const auto* data = b.data();
  pool.release(std::move(b));
  // LIFO freelist: the very next acquire returns the same allocation,
  // cleared but with capacity intact.
  Bytes again = pool.acquire();
  EXPECT_EQ(again.data(), data);
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), 512u);
  pool.release(std::move(again));
}

// A refill's spares are new buffers: handing one out is a miss, and only a
// released buffer counts as reused.
TEST(BufferPool, RefilledBuffersCountAsMisses) {
  BufferPool pool;
  Bytes a = pool.acquire();  // empty freelist: refill, then a spare
  EXPECT_GE(a.capacity(), BufferPool::kBufferCapacity);
  pool.release(std::move(a));
  Bytes b = pool.acquire();  // the released buffer
  Bytes c = pool.acquire();  // another spare
  EXPECT_EQ(pool.stats().acquired, 3u);
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(pool.size(), BufferPool::kRefill - 2);
}

TEST(BufferPool, DropsCapacityLessAndGiantBuffers) {
  BufferPool& pool = BufferPool::local();
  const auto before = pool.stats();
  pool.release(Bytes{});  // nothing to keep
  Bytes giant;
  giant.reserve(BufferPool::kMaxRetainedCapacity + 1);
  pool.release(std::move(giant));
  const auto after = pool.stats();
  EXPECT_EQ(after.dropped - before.dropped, 2u);
  EXPECT_EQ(after.released - before.released, 0u);
}

TEST(BufferPool, WriterTakeHandsBufferToCaller) {
  BufferPool& pool = BufferPool::local();
  Bytes taken;
  {
    Writer w;
    w.u32(0xFEEDFACE);
    taken = w.take();
  }  // dtor releases only the moved-from shell (dropped, not pooled)
  ASSERT_EQ(taken.size(), 4u);
  const auto before = pool.stats();
  pool.release(std::move(taken));
  EXPECT_EQ(pool.stats().released - before.released, 1u);
}

// An untaken Writer returns its buffer to the pool on destruction.
TEST(BufferPool, AbandonedWriterReturnsBuffer) {
  BufferPool& pool = BufferPool::local();
  const auto before = pool.stats();
  {
    Writer w;
    w.u64(42);  // forces a real allocation into the buffer
  }
  EXPECT_EQ(pool.stats().released - before.released, 1u);
}

}  // namespace
}  // namespace ssr::wire
