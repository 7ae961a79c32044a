#pragma once

#include <cstdint>
#include <optional>

#include "wire/wire.hpp"

namespace ssr::dlink {

/// Logical multiplexing port for the protocol stack (paper Fig. 1 layers).
using Port = std::uint8_t;

inline constexpr Port kPortRecSA = 1;
inline constexpr Port kPortRecMA = 2;
inline constexpr Port kPortJoin = 3;
inline constexpr Port kPortLabel = 4;
inline constexpr Port kPortCounter = 5;
inline constexpr Port kPortVS = 6;
inline constexpr Port kPortShmem = 7;

/// Data-link frame kinds. A data link is directional; the anti-parallel pair
/// of links between two processors (paper, Section 2) is realized as two
/// independent sender/receiver state machines. Every frame names the
/// *link sender*, so each endpoint can route frames of both links.
enum class FrameKind : std::uint8_t {
  kData = 1,      // sender → receiver: labelled payload
  kAck = 2,       // receiver → sender: acknowledges a label
  kClean = 3,     // sender → receiver: snap-stabilizing cleaning probe
  kCleanAck = 4,  // receiver → sender
  kReclean = 5,   // receiver → sender: still quarantined, clean again
  kDataAck = 6,   // both links in one packet: a kData of link
                  // `link_sender` → peer and a kAck of the reverse link
};

struct Frame {
  FrameKind kind = FrameKind::kData;
  NodeId link_sender = kNoNode;  // identifies which directed link
  std::uint8_t label = 0;        // bounded ARQ label / cleaning nonce
  std::uint8_t ack_label = 0;    // kDataAck only: the reverse link's label
  wire::Bytes payload;           // bundle bytes (kData and kDataAck)

  wire::Bytes encode() const;
  static std::optional<Frame> decode(const wire::Bytes& raw);
};

/// One multiplexed item inside a data frame's payload bundle.
struct BundleItem {
  Port port = 0;
  bool is_state = true;  // state slot (coalesced) vs. queued datagram
  wire::Bytes data;
};

wire::Bytes encode_bundle(const std::vector<BundleItem>& items);
std::optional<std::vector<BundleItem>> decode_bundle(const wire::Bytes& raw);
/// Allocation-light variant for the per-frame hot path: decodes into `out`
/// (cleared first, capacity reused across frames). Returns false on a
/// corrupted bundle; `out` may then hold a partial decode.
bool decode_bundle(const wire::Bytes& raw, std::vector<BundleItem>& out);

}  // namespace ssr::dlink
