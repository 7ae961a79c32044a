#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "util/types.hpp"
#include "wire/wire.hpp"

namespace ssr::net {

struct SessionConfig {
  /// The node this session serves; its own id is never learned as a peer.
  NodeId self = kNoNode;
  /// Shard stamped into every outgoing envelope and checked on receive.
  std::uint32_t shard = 0;
  /// Learn/refresh peer addresses from the source address of well-formed
  /// same-shard datagrams (see UdpTransportConfig.learn_peers).
  bool learn_peers = true;
};

/// Transport-agnostic SSRU session layer: the envelope codec, version
/// check, shard filter and peer-address learning that PR 5/6 grew inside
/// `UdpTransport`, extracted so a batched UDP backend is pure syscall
/// plumbing and a future TCP backend reuses the identical logic.
///
/// The session knows nothing about sockets. Peer addresses are opaque byte
/// blobs the owning transport resolves and interprets (a `sockaddr_in` for
/// UDP, a connection id for TCP); the session only stores, compares and
/// hands them back.
class Session {
 public:
  /// Opaque peer address as the owning transport understands it.
  using Address = std::vector<std::uint8_t>;

  explicit Session(SessionConfig cfg) : cfg_(cfg) {}

  const SessionConfig& config() const { return cfg_; }

  // -- Envelope codec --------------------------------------------------------
  // v3 layout: magic u32 | version u8 | shard u32 | src u32 | dst u32 |
  // payload-length u32 | payload. Older versions are not accepted: a
  // cohort is always deployed as one build, and rejecting the old version
  // outright keeps the strict-framing property (every accepted datagram
  // has exactly one valid reading). v1 had no shard field; v2 has the v3
  // envelope but seals its inner token-link frames with FNV-1a instead of
  // CRC-32C, so a v2 datagram would pass here and then fail every frame
  // seal silently — the version check counts it as malformed instead.
  static constexpr std::uint32_t kMagic = 0x55525353;  // "SSRU" little-endian
  static constexpr std::uint8_t kVersion = 3;
  static wire::Bytes encode_envelope(std::uint32_t shard, NodeId src,
                                     NodeId dst, const wire::Bytes& payload);
  /// On success `*shard_out` (when non-null) receives the envelope's shard
  /// tag; shard filtering is the receive path's job, not the codec's.
  static std::optional<Packet> decode_envelope(const std::uint8_t* data,
                                               std::size_t len,
                                               std::uint32_t* shard_out =
                                                   nullptr);

  /// Seals `payload` into an envelope stamped with this session's shard.
  wire::Bytes seal(NodeId src, NodeId dst, const wire::Bytes& payload) const {
    return encode_envelope(cfg_.shard, src, dst, payload);
  }

  // -- Inbound classification ------------------------------------------------
  enum class Verdict {
    kAccept,      // *out holds a valid same-shard packet (pooled payload)
    kMalformed,   // bad magic/version/framing — count and drop
    kWrongShard,  // well-formed, foreign shard tag — count and drop
  };

  /// Classifies one inbound datagram. On kAccept, fills `*out` (the payload
  /// buffer comes from the thread's wire::BufferPool — the caller owns it)
  /// and applies the peer-learning policy: a well-formed envelope vouches
  /// for its source id, so `from` (when non-empty and not self) refreshes
  /// the route to `out->src`. A foreign shard's source is never learned —
  /// the same node id legitimately exists in every shard. Pass an empty
  /// `from` when the transport has no usable source address.
  Verdict admit(const std::uint8_t* data, std::size_t len,
                const std::uint8_t* from, std::size_t from_len, Packet* out);

  // -- Address book ----------------------------------------------------------
  void set_route(NodeId id, Address addr);
  /// The known route to `id`, or nullptr. The pointer is invalidated by the
  /// next set_route()/admit() — copy out before staging deferred work.
  const Address* route(NodeId id) const;
  bool has_route(NodeId id) const { return addrs_.count(id) != 0; }

  struct Stats {
    std::uint64_t learned = 0;  // routes added or refreshed by admit()
  };
  const Stats& stats() const { return stats_; }

 private:
  SessionConfig cfg_;
  std::map<NodeId, Address> addrs_;
  Stats stats_;
};

}  // namespace ssr::net
