#include "net/session.hpp"

#include <cstring>

namespace ssr::net {

wire::Bytes Session::encode_envelope(NodeId src, NodeId dst,
                                     const wire::Bytes& payload) {
  wire::Writer w;
  w.reserve(kHeaderBytes + payload.size());
  w.u32(kMagic);
  w.u8(kVersion);
  w.node_id(src);
  w.node_id(dst);
  w.bytes(payload);
  return w.take();
}

std::optional<Packet> Session::decode_envelope(const std::uint8_t* data,
                                               std::size_t len) {
  // Parsed by hand over the receive buffer: going through wire::Reader
  // would copy the whole datagram once for the Reader and once more for
  // the payload slice — on the hot receive path the payload copy is the
  // only one allowed.
  const auto rd_u32 = [data](std::size_t off) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[off + i]) << (8 * i);
    }
    return v;
  };
  if (len < kHeaderBytes) return std::nullopt;
  if (rd_u32(0) != kMagic) return std::nullopt;
  if (data[4] != kVersion) return std::nullopt;
  Packet pkt;
  pkt.src = rd_u32(5);
  pkt.dst = rd_u32(9);
  // Strict framing: the length prefix must name exactly the bytes present
  // (truncated or padded datagrams are corruption, not messages).
  if (rd_u32(13) != len - kHeaderBytes) return std::nullopt;
  pkt.payload = wire::BufferPool::local().acquire();
  // ssr-lint: allow(hot-path-alloc): pooled buffer keeps capacity on reuse.
  pkt.payload.assign(data + kHeaderBytes, data + len);
  return pkt;
}

bool Session::admit(const std::uint8_t* data, std::size_t len,
                    const std::uint8_t* from, std::size_t from_len,
                    Packet* out) {
  auto pkt = decode_envelope(data, len);
  if (!pkt) return false;
  if (cfg_.learn_peers && pkt->src != cfg_.self && from != nullptr &&
      from_len > 0) {
    // A well-formed envelope vouches for its source id; remember where it
    // actually came from so replies route even when the address book only
    // had a port-0 placeholder (or a stale port from before a respawn).
    Address& known = addrs_[pkt->src];
    if (known.size() != from_len ||
        std::memcmp(known.data(), from, from_len) != 0) {
      // ssr-lint: allow(hot-path-alloc): route rebind — rare respawn.
      known.assign(from, from + from_len);
      ++stats_.learned;
    }
  }
  *out = std::move(*pkt);
  return true;
}

void Session::set_route(NodeId id, Address addr) {
  addrs_[id] = std::move(addr);
}

const Session::Address* Session::route(NodeId id) const {
  auto it = addrs_.find(id);
  return it == addrs_.end() ? nullptr : &it->second;
}

}  // namespace ssr::net
