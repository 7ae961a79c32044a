#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/assert.hpp"
#include "util/wallclock.hpp"
#include "wire/wire.hpp"

namespace ssr::net {
namespace {

Session::Address resolve(const UdpEndpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  SSR_ASSERT(::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) == 1,
             "UdpEndpoint.host must be a numeric IPv4 address");
  Session::Address raw(sizeof(addr));
  std::memcpy(raw.data(), &addr, sizeof(addr));
  return raw;
}

int real_sendmmsg(int fd, mmsghdr* msgs, unsigned n, int flags) {
  return static_cast<int>(::sendmmsg(fd, msgs, n, flags));
}

int real_recvmmsg(int fd, mmsghdr* msgs, unsigned n, int flags,
                  timespec* timeout) {
  return static_cast<int>(::recvmmsg(fd, msgs, n, flags, timeout));
}

}  // namespace

UdpTransport::UdpTransport(UdpTransportConfig cfg)
    : cfg_(std::move(cfg)),
      session_(SessionConfig{cfg_.self, cfg_.learn_peers}),
      sendmmsg_fn_(&real_sendmmsg),
      recvmmsg_fn_(&real_recvmmsg) {
  SSR_ASSERT(cfg_.peers.count(cfg_.self) != 0,
             "UdpTransportConfig.peers must contain the self endpoint");
  cfg_.batch = std::clamp<std::size_t>(cfg_.batch, 1, kMaxBatch);
  epoch_usec_ = steady_usec();

  // One-time ring setup; nothing on the datapath grows these again.
  // ssr-lint: allow(hot-path-alloc): send/recv ring setup, once per transport.
  tx_bufs_.resize(cfg_.batch);
  // ssr-lint: allow(hot-path-alloc): send/recv ring setup, once per transport.
  tx_addrs_.resize(cfg_.batch);
  // ssr-lint: allow(hot-path-alloc): send/recv ring setup, once per transport.
  tx_iov_.resize(cfg_.batch);
  // ssr-lint: allow(hot-path-alloc): send/recv ring setup, once per transport.
  tx_msgs_.resize(cfg_.batch);
  // ssr-lint: allow(hot-path-alloc): send/recv ring setup, once per transport.
  rx_block_.resize(cfg_.batch * cfg_.max_datagram);
  // ssr-lint: allow(hot-path-alloc): send/recv ring setup, once per transport.
  rx_from_.resize(cfg_.batch);
  // ssr-lint: allow(hot-path-alloc): send/recv ring setup, once per transport.
  rx_iov_.resize(cfg_.batch);
  // ssr-lint: allow(hot-path-alloc): send/recv ring setup, once per transport.
  rx_msgs_.resize(cfg_.batch);
  for (std::size_t i = 0; i < cfg_.batch; ++i) {
    rx_iov_[i].iov_base = rx_block_.data() + i * cfg_.max_datagram;
    rx_iov_[i].iov_len = cfg_.max_datagram;
  }

  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  SSR_ASSERT(fd_ >= 0, "socket(AF_INET, SOCK_DGRAM) failed");

  sockaddr_in bind_addr{};
  bind_addr.sin_family = AF_INET;
  bind_addr.sin_addr.s_addr = htonl(INADDR_ANY);
  bind_addr.sin_port = htons(cfg_.peers.at(cfg_.self).port);
  SSR_ASSERT(::bind(fd_, reinterpret_cast<sockaddr*>(&bind_addr),
                    sizeof(bind_addr)) == 0,
             "bind failed — port already in use?");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  local_port_ = ntohs(bound.sin_port);

  for (const auto& [id, ep] : cfg_.peers) {
    if (ep.port != 0) session_.set_route(id, resolve(ep));
  }
  // Self always resolves to the actually bound port (covers port 0).
  UdpEndpoint self_ep = cfg_.peers.at(cfg_.self);
  self_ep.port = local_port_;
  session_.set_route(cfg_.self, resolve(self_ep));
}

UdpTransport::~UdpTransport() {
  flush();
  if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::set_peer(NodeId id, const UdpEndpoint& ep) {
  session_.set_route(id, resolve(ep));
}

void UdpTransport::set_syscall_hooks(SendmmsgFn send_fn, RecvmmsgFn recv_fn) {
  sendmmsg_fn_ = send_fn != nullptr ? send_fn : &real_sendmmsg;
  recvmmsg_fn_ = recv_fn != nullptr ? recv_fn : &real_recvmmsg;
}

void UdpTransport::attach(NodeId id, Handler handler) {
  SSR_ASSERT(handlers_.count(id) == 0,
             "re-attach of a live node — detach the old incarnation first");
  handlers_[id] = std::move(handler);
}

void UdpTransport::send(NodeId src, NodeId dst, wire::Bytes payload) {
  if (blocked_.contains(dst)) {
    ++stats_.filtered_out;
    wire::BufferPool::local().release(std::move(payload));
    return;
  }
  const Session::Address* route = session_.route(dst);
  if (route == nullptr) {
    // No route — indistinguishable from a crashed destination; the
    // retransmitting link layer handles it like any other loss.
    ++stats_.no_route;
    wire::BufferPool::local().release(std::move(payload));
    return;
  }
  SSR_ASSERT(route->size() == sizeof(sockaddr_in),
             "UDP routes must be resolved sockaddr_in blobs");
  // Stage into the ring: the address is copied now (the route may be
  // rebound before the flush), the sealed datagram buffer is owned by the
  // ring until the flush releases it.
  std::memcpy(&tx_addrs_[tx_count_], route->data(), sizeof(sockaddr_in));
  tx_bufs_[tx_count_] = Session::encode_envelope(src, dst, payload);
  ++tx_count_;
  wire::BufferPool::local().release(std::move(payload));
  if (tx_count_ == tx_bufs_.size()) flush();
}

void UdpTransport::flush() {
  if (tx_count_ == 0) return;
  for (std::size_t i = 0; i < tx_count_; ++i) {
    tx_iov_[i].iov_base = tx_bufs_[i].data();
    tx_iov_[i].iov_len = tx_bufs_[i].size();
    mmsghdr& m = tx_msgs_[i];
    std::memset(&m, 0, sizeof(m));
    m.msg_hdr.msg_name = &tx_addrs_[i];
    m.msg_hdr.msg_namelen = sizeof(sockaddr_in);
    m.msg_hdr.msg_iov = &tx_iov_[i];
    m.msg_hdr.msg_iovlen = 1;
  }
  std::size_t off = 0;
  while (off < tx_count_) {
    const int r = sendmmsg_fn_(fd_, tx_msgs_.data() + off,
                               static_cast<unsigned>(tx_count_ - off), 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
        // Kernel backpressure: UDP is lossy anyway — charge the rest as
        // losses rather than spin on a full socket buffer.
        stats_.send_failures += tx_count_ - off;
        break;
      }
      // Per-datagram error (bad address, EMSGSIZE, ...): charge the head
      // message and keep flushing the rest of the ring.
      ++stats_.send_failures;
      ++off;
      continue;
    }
    ++stats_.send_syscalls;
    if (r >= 2) stats_.batched_sends += static_cast<std::uint64_t>(r);
    for (int i = 0; i < r; ++i) {
      if (tx_msgs_[off + i].msg_len ==
          static_cast<unsigned>(tx_iov_[off + i].iov_len)) {
        ++stats_.sent;
      } else {
        ++stats_.send_partial;  // kernel truncated the datagram — lost
      }
    }
    // r < remaining is a partial completion: resume at the first unsent
    // message (the next call typically reports why it stopped).
    off += static_cast<std::size_t>(r);
  }
  for (std::size_t i = 0; i < tx_count_; ++i) {
    wire::BufferPool::local().release(std::move(tx_bufs_[i]));
  }
  tx_count_ = 0;
}

SimTime UdpTransport::now() const { return steady_usec() - epoch_usec_; }

const TimerHandle::Ops UdpTransport::kTimerOps{
    [](void* owner, std::uint32_t slot, std::uint32_t gen) {
      auto* t = static_cast<UdpTransport*>(owner);
      if (slot < t->timer_slots_.size() && t->timer_slots_[slot].gen == gen) {
        t->free_timer_slot(slot);
      }
    },
    [](const void* owner, std::uint32_t slot, std::uint32_t gen) {
      const auto* t = static_cast<const UdpTransport*>(owner);
      return slot < t->timer_slots_.size() && t->timer_slots_[slot].gen == gen;
    }};

std::uint32_t UdpTransport::alloc_timer_slot() {
  if (timer_free_head_ != 0xFFFFFFFFu) {
    const std::uint32_t slot = timer_free_head_;
    timer_free_head_ = timer_slots_[slot].next_free;
    return slot;
  }
  // ssr-lint: allow(hot-path-alloc): slab growth — amortized, slots recycle.
  timer_slots_.emplace_back();
  return static_cast<std::uint32_t>(timer_slots_.size() - 1);
}

void UdpTransport::free_timer_slot(std::uint32_t slot) {
  TimerSlot& s = timer_slots_[slot];
  ++s.gen;  // retires outstanding handles and the heap tombstone
  if (s.fn) s.fn = nullptr;
  s.next_free = timer_free_head_;
  timer_free_head_ = slot;
}

TimerHandle UdpTransport::schedule_after(SimTime delay, TimerFn fn) {
  const std::uint32_t slot = alloc_timer_slot();
  TimerSlot& s = timer_slots_[slot];
  s.fn = std::move(fn);
  timers_.push(TimerEntry{now() + delay, next_seq_++, slot, s.gen});
  return TimerHandle(&kTimerOps, this, slot, s.gen);
}

SimTime UdpTransport::wait_budget(SimTime fallback) {
  // Skim cancelled timers off the top so a dead timer never shortens the
  // poll sleep (and the queue cannot fill with tombstones).
  while (!timers_.empty() && !timer_live(timers_.top())) timers_.pop();
  if (timers_.empty()) return fallback;
  const SimTime t = now();
  const SimTime due = timers_.top().when;
  return std::min(fallback, due > t ? due - t : 0);
}

bool UdpTransport::poll_once(SimTime max_wait) {
  // Pre-sleep flush: a staged send must never wait out a poll sleep —
  // batching trades syscalls, not latency.
  flush();
  const SimTime wait = wait_budget(max_wait);
  pollfd pfd{fd_, POLLIN, 0};
  const int timeout_ms = static_cast<int>((wait + 999) / 1000);
  const int rc = ::poll(&pfd, 1, timeout_ms);
  bool activity = false;
  if (rc > 0 && (pfd.revents & POLLIN) != 0) activity |= drain_socket();
  activity |= fire_due_timers();
  // Round boundary: everything the handlers and timers just staged (acks
  // for the drained batch, a tick's full fan-out) leaves in one sendmmsg.
  flush();
  return activity;
}

void UdpTransport::run_for(SimTime duration) {
  const SimTime deadline = now() + duration;
  while (now() < deadline) poll_once(deadline - now());
}

bool UdpTransport::drain_socket() {
  bool any = false;
  const unsigned n = static_cast<unsigned>(rx_msgs_.size());
  for (;;) {
    for (unsigned i = 0; i < n; ++i) {
      mmsghdr& m = rx_msgs_[i];
      std::memset(&m, 0, sizeof(m));
      m.msg_hdr.msg_name = &rx_from_[i];
      m.msg_hdr.msg_namelen = sizeof(sockaddr_in);  // value-result field
      m.msg_hdr.msg_iov = &rx_iov_[i];
      m.msg_hdr.msg_iovlen = 1;
    }
    const int r = recvmmsg_fn_(fd_, rx_msgs_.data(), n, 0, nullptr);
    if (r < 0) {
      if (errno == EINTR) continue;  // a stray signal must not end the drain
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // drained
      ++stats_.recv_errors;  // real error: count it, yield to the next poll
      break;
    }
    if (r == 0) break;
    ++stats_.recv_syscalls;
    any = true;
    for (int i = 0; i < r; ++i) {
      process_datagram(static_cast<const std::uint8_t*>(rx_iov_[i].iov_base),
                       rx_msgs_[i].msg_len, rx_from_[i],
                       rx_msgs_[i].msg_hdr.msg_namelen);
    }
    if (static_cast<unsigned>(r) < n) break;  // short fill: queue is dry
  }
  return any;
}

void UdpTransport::process_datagram(const std::uint8_t* data, std::size_t len,
                                    const sockaddr_in& from,
                                    socklen_t from_len) {
  const bool addr_ok = from_len == sizeof(sockaddr_in);
  Packet pkt;
  if (!session_.admit(
          data, len,
          addr_ok ? reinterpret_cast<const std::uint8_t*>(&from) : nullptr,
          addr_ok ? sizeof(from) : 0, &pkt)) {
    ++stats_.dropped_malformed;
    return;
  }
  if (blocked_.contains(pkt.src)) {
    ++stats_.filtered_in;
    wire::BufferPool::local().release(std::move(pkt.payload));
    return;
  }
  auto h = handlers_.find(pkt.dst);
  if (h == handlers_.end()) {
    ++stats_.dropped_unattached;
    wire::BufferPool::local().release(std::move(pkt.payload));
    return;
  }
  ++stats_.received;
  h->second(pkt);
  wire::BufferPool::local().release(std::move(pkt.payload));
}

bool UdpTransport::fire_due_timers() {
  bool any = false;
  while (!timers_.empty()) {
    const TimerEntry top = timers_.top();
    if (!timer_live(top)) {
      timers_.pop();
      continue;
    }
    if (top.when > now()) break;
    timers_.pop();
    // Move the callback out and free the slot before firing, so the timer's
    // own handle reads as not-pending and rescheduling from inside is safe.
    TimerFn fn = std::move(timer_slots_[top.slot].fn);
    timer_slots_[top.slot].fn = nullptr;
    free_timer_slot(top.slot);
    ++stats_.timers_fired;
    any = true;
    fn();
  }
  return any;
}

}  // namespace ssr::net
