// Decoder fuzzing: every protocol decoder must survive arbitrary bytes —
// the channels may contain stale packets of any content after a transient
// fault (paper, Section 2), and 'survive' means: no crash, no acceptance of
// structurally invalid messages.
#include <gtest/gtest.h>

#include "counter/counter.hpp"
#include "dlink/frame.hpp"
#include "label/label.hpp"
#include "reconf/recsa.hpp"
#include "util/rng.hpp"
#include "vs/vs_smr.hpp"

namespace ssr {
namespace {

wire::Bytes random_bytes(Rng& rng, std::size_t max_len) {
  wire::Bytes out(rng.next_below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

/// Mutates a valid encoding with a few byte flips — the adversarial middle
/// ground between valid and random input.
wire::Bytes mutate(Rng& rng, wire::Bytes valid) {
  if (valid.empty()) return valid;
  const std::size_t flips = 1 + rng.next_below(3);
  for (std::size_t i = 0; i < flips; ++i) {
    valid[rng.next_below(valid.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
  }
  return valid;
}

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, RandomBytesNeverCrashAnyDecoder) {
  Rng rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    const wire::Bytes junk = random_bytes(rng, 96);
    (void)dlink::Frame::decode(junk);
    (void)dlink::decode_bundle(junk);
    (void)reconf::RecSAMessage::decode(junk);
    (void)vs::VSRecord::decode(junk);
    {
      wire::Reader r(junk);
      (void)label::Label::decode(r);
    }
    {
      wire::Reader r(junk);
      (void)label::LabelPair::decode(r);
    }
    {
      wire::Reader r(junk);
      (void)counter::Counter::decode(r);
    }
    {
      wire::Reader r(junk);
      (void)counter::CounterPair::decode(r);
    }
    {
      wire::Reader r(junk);
      (void)reconf::ConfigValue::decode(r);
    }
  }
  SUCCEED();
}

TEST_P(DecoderFuzz, MutatedRecSAMessagesDecodeOrDropCleanly) {
  Rng rng(GetParam() * 3 + 1);
  reconf::RecSAMessage m;
  m.fd = IdSet{1, 2, 3};
  m.part = IdSet{1, 2};
  m.config = reconf::ConfigValue::set(IdSet{1, 2});
  m.prp = reconf::Notification::proposal(1, IdSet{2, 3});
  m.echo = reconf::EchoView{IdSet{1}, reconf::Notification::none(), true};
  const wire::Bytes valid = m.encode();
  for (int i = 0; i < 300; ++i) {
    auto decoded = reconf::RecSAMessage::decode(mutate(rng, valid));
    if (decoded) {
      // Accepted mutants must still be structurally sound (phases in range).
      EXPECT_LE(decoded->prp.phase, 2);
    }
  }
}

TEST_P(DecoderFuzz, MutatedVSRecordsDecodeOrDropCleanly) {
  Rng rng(GetParam() * 5 + 2);
  vs::VSRecord rec;
  rec.view.set = IdSet{1, 2};
  rec.msgs = {{1, wire::Bytes{1, 2}}};
  rec.replica = wire::Bytes{3, 4, 5};
  const wire::Bytes valid = rec.encode();
  for (int i = 0; i < 300; ++i) {
    auto decoded = vs::VSRecord::decode(mutate(rng, valid));
    if (decoded) {
      EXPECT_LE(static_cast<int>(decoded->status), 2);
    }
  }
}

TEST_P(DecoderFuzz, MutatedFramesDecodeOrDropCleanly) {
  Rng rng(GetParam() * 7 + 3);
  for (dlink::FrameKind kind :
       {dlink::FrameKind::kData, dlink::FrameKind::kDataAck}) {
    dlink::Frame f;
    f.kind = kind;
    f.link_sender = 3;
    f.label = 5;
    f.ack_label = 6;
    f.payload = wire::Bytes{1, 2, 3, 4};
    const wire::Bytes valid = f.encode();
    for (int i = 0; i < 300; ++i) {
      auto decoded = dlink::Frame::decode(mutate(rng, valid));
      if (decoded) {
        const int k = static_cast<int>(decoded->kind);
        EXPECT_GE(k, 1);
        EXPECT_LE(k, 6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz,
                         ::testing::Values(1001, 1002, 1003, 1004));

}  // namespace
}  // namespace ssr
