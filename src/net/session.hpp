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
  /// Learn/refresh peer addresses from the source address of well-formed
  /// datagrams (see UdpTransportConfig.learn_peers).
  bool learn_peers = true;
};

/// Transport-agnostic SSRU session layer: the envelope codec, version check
/// and peer-address learning, kept out of `UdpTransport` so a batched UDP
/// backend is pure syscall plumbing and another transport can reuse the
/// identical logic.
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
  // v4 layout: magic u32 | version u8 | src u32 | dst u32 |
  // payload-length u32 | payload — a 17-byte header. Older versions are not
  // accepted: a cohort is always deployed as one build, and rejecting the
  // old version outright keeps the strict-framing property (every accepted
  // datagram has exactly one valid reading). v3 carried one more u32, a
  // fleet tag, after the version byte; v2 had the v3 layout but sealed its
  // inner token-link frames with FNV-1a instead of CRC-32C. The version
  // check counts every older datagram as malformed.
  static constexpr std::uint32_t kMagic = 0x55525353;  // "SSRU" little-endian
  static constexpr std::uint8_t kVersion = 4;
  static constexpr std::size_t kHeaderBytes = 4 + 1 + 4 + 4 + 4;
  static wire::Bytes encode_envelope(NodeId src, NodeId dst,
                                     const wire::Bytes& payload);
  static std::optional<Packet> decode_envelope(const std::uint8_t* data,
                                               std::size_t len);

  // -- Inbound classification ------------------------------------------------
  /// Admits one inbound datagram: true when it is a well-formed envelope,
  /// false when it is malformed (bad magic/version/framing — count and
  /// drop). On acceptance, fills `*out` (the payload buffer comes from the
  /// thread's wire::BufferPool — the caller owns it) and applies the
  /// peer-learning policy: a well-formed envelope vouches for its source
  /// id, so `from` (when non-empty and not self) refreshes the route to
  /// `out->src`. Pass an empty `from` when the transport has no usable
  /// source address.
  bool admit(const std::uint8_t* data, std::size_t len,
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
