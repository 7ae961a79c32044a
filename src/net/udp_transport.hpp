#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <cstdint>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "net/session.hpp"
#include "net/transport.hpp"
#include "util/id_set.hpp"

namespace ssr::net {

/// Numeric IPv4 address of one node's UDP socket.
struct UdpEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = let the OS pick (tests); read local_port()
};

struct UdpTransportConfig {
  /// The node this transport serves; its entry in `peers` is the bind
  /// address. Must be present in `peers`.
  NodeId self = kNoNode;
  /// Static address book: node id → where its datagrams go. Entries can be
  /// added or rebound later with set_peer() (e.g. after peers bound port 0).
  std::map<NodeId, UdpEndpoint> peers;
  /// Receive buffer size; datagrams longer than this are truncated by the
  /// socket and then dropped as malformed.
  std::size_t max_datagram = 64 * 1024;
  /// Learn/refresh peer addresses from the source address of well-formed
  /// incoming datagrams. This lets a cohort that bound port 0 find each
  /// other from any one seed direction, and re-resolves a peer that
  /// respawned on a new port — no static address book maintenance.
  bool learn_peers = true;
  /// Syscall batching factor (clamped to [1, kMaxBatch]). Sends are staged
  /// into a `batch`-deep mmsghdr ring flushed with one sendmmsg — on ring
  /// full, on Transport::flush() at tick boundaries, and before any poll
  /// sleep; receives drain up to `batch` datagrams per recvmmsg. 1 degrades
  /// to one syscall per datagram (the unbatched A/B baseline).
  std::size_t batch = 16;
};

/// Transport over non-blocking UDP sockets with a poll-based event loop and
/// wall-clock timers — the same node stack that runs on the simulated
/// fabric runs over this on localhost or a real network.
///
/// The datapath batches the syscall boundary: outgoing datagrams are staged
/// into a fixed mmsghdr/iovec ring and flushed with a single sendmmsg (the
/// token-link layer fans a frame to every peer each tick, so one protocol
/// tick is one syscall, not one per peer); the receive side drains several
/// datagrams per recvmmsg. Envelope framing, version checks and
/// peer-address learning live in the transport-agnostic net::Session — this
/// class is pure syscall plumbing.
///
/// Threading: single-threaded by design, like the simulator. The owner
/// drives the loop with run_for()/poll_once(); handlers and timers fire on
/// the driving thread.
class UdpTransport final : public Transport {
 public:
  /// Upper bound on the ring depth: past ~64 the per-flush win flattens
  /// while the staged-buffer footprint keeps growing.
  static constexpr std::size_t kMaxBatch = 64;

  explicit UdpTransport(UdpTransportConfig cfg);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // -- Transport interface ---------------------------------------------------
  void attach(NodeId id, Handler handler) override;
  void detach(NodeId id) override { handlers_.erase(id); }
  bool attached(NodeId id) const override { return handlers_.count(id) != 0; }
  void send(NodeId src, NodeId dst, wire::Bytes payload) override;
  /// Flushes the staged send ring with sendmmsg (tick-boundary hook).
  void flush() override;
  /// Wall-clock microseconds since the transport was created.
  SimTime now() const override;
  TimerHandle schedule_after(SimTime delay, TimerFn fn) override;

  // -- Event loop ------------------------------------------------------------
  /// One poll round: flushes staged sends, sleeps until a datagram arrives,
  /// the next timer is due or `max_wait` elapses; then drains the socket,
  /// fires due timers and flushes whatever those staged. Returns true when
  /// any packet or timer was processed.
  bool poll_once(SimTime max_wait);
  /// Drives the loop for `duration` of wall time.
  void run_for(SimTime duration);

  // -- Address book ----------------------------------------------------------
  /// Adds or rebinds a peer address (late binding for port-0 test setups).
  void set_peer(NodeId id, const UdpEndpoint& ep);
  /// True when a route to `id` is known (configured, set_peer, or learned).
  bool has_peer(NodeId id) const { return session_.has_route(id); }
  /// The actually bound local port (resolves port 0 at construction).
  std::uint16_t local_port() const { return local_port_; }
  const UdpTransportConfig& config() const { return cfg_; }
  const Session& session() const { return session_; }

  // -- Dynamic peer filter ---------------------------------------------------
  /// Blocks traffic with these peers in both directions: outgoing datagrams
  /// toward them are not sent and incoming ones from them are dropped after
  /// decode. This is the per-node half of a network partition — the process
  /// scenario backend installs complementary filters over the control
  /// socket to cut a cohort in two without touching routing tables.
  void set_blocked(IdSet blocked) { blocked_ = std::move(blocked); }
  const IdSet& blocked() const { return blocked_; }

  struct Stats {
    std::uint64_t sent = 0;           // datagrams the kernel accepted whole
    std::uint64_t send_failures = 0;  // errno-level sendmmsg losses
    std::uint64_t no_route = 0;       // sends with no address-book entry
    std::uint64_t send_partial = 0;   // kernel accepted fewer bytes than staged
    std::uint64_t send_syscalls = 0;  // successful sendmmsg invocations
    std::uint64_t recv_syscalls = 0;  // successful recvmmsg invocations
    std::uint64_t batched_sends = 0;  // datagrams that shared a sendmmsg (≥2)
    std::uint64_t received = 0;
    std::uint64_t recv_errors = 0;        // real recvmmsg errors (not EAGAIN)
    std::uint64_t dropped_malformed = 0;  // bad magic/version/encoding
    std::uint64_t dropped_unattached = 0;  // well-formed, but no such node
    std::uint64_t filtered_out = 0;  // sends suppressed by the peer filter
    std::uint64_t filtered_in = 0;   // receives dropped by the peer filter
    std::uint64_t timers_fired = 0;
  };
  const Stats& stats() const { return stats_; }

  // -- Syscall seams (tests only) --------------------------------------------
  // Raw function pointers so batching edge cases (partial sendmmsg returns,
  // per-datagram errors, scripted recvmmsg fills) are testable without a
  // cooperating kernel. Production code never touches these.
  using SendmmsgFn = int (*)(int fd, mmsghdr* msgs, unsigned n, int flags);
  using RecvmmsgFn = int (*)(int fd, mmsghdr* msgs, unsigned n, int flags,
                             timespec* timeout);
  void set_syscall_hooks(SendmmsgFn send_fn, RecvmmsgFn recv_fn);

 private:
  /// Pooled timer record; the same {slot, generation} handle scheme as
  /// sim::Scheduler (a TimerHandle is a generation compare away from its
  /// slot — no shared_ptr tombstone per timer).
  struct TimerSlot {
    std::uint32_t gen = 0;  // liveness == generation match, nothing else
    std::uint32_t next_free = 0xFFFFFFFFu;
    TimerFn fn;
  };
  /// Heap entry with the full ordering key inline; a stale (slot, gen)
  /// pair marks a cancelled timer's tombstone, dropped lazily.
  struct TimerEntry {
    SimTime when = 0;
    std::uint64_t seq = 0;  // FIFO tie-break at equal deadlines
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  struct Later {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  bool drain_socket();
  void process_datagram(const std::uint8_t* data, std::size_t len,
                        const sockaddr_in& from, socklen_t from_len);
  bool fire_due_timers();
  /// Wall time until the next live timer, or `fallback` with none pending.
  SimTime wait_budget(SimTime fallback);
  std::uint32_t alloc_timer_slot();
  void free_timer_slot(std::uint32_t slot);
  bool timer_live(const TimerEntry& e) const {
    return timer_slots_[e.slot].gen == e.gen;
  }
  static const TimerHandle::Ops kTimerOps;

  UdpTransportConfig cfg_;
  Session session_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::uint64_t epoch_usec_ = 0;  // steady-clock origin
  std::map<NodeId, Handler> handlers_;
  IdSet blocked_;
  std::uint64_t next_seq_ = 0;
  std::vector<TimerSlot> timer_slots_;
  std::uint32_t timer_free_head_ = 0xFFFFFFFFu;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, Later> timers_;

  // Send ring: parallel fixed-size arrays, `tx_count_` staged entries.
  // Destination addresses are copied at stage time — the session's address
  // book may rebind a route between stage and flush, and the datagram must
  // go where the route pointed when send() ran.
  std::vector<wire::Bytes> tx_bufs_;
  std::vector<sockaddr_in> tx_addrs_;
  std::vector<iovec> tx_iov_;
  std::vector<mmsghdr> tx_msgs_;
  std::size_t tx_count_ = 0;

  // Receive array: one contiguous block sliced into `batch` buffers of
  // max_datagram bytes each, filled by a single recvmmsg.
  std::vector<std::uint8_t> rx_block_;
  std::vector<sockaddr_in> rx_from_;
  std::vector<iovec> rx_iov_;
  std::vector<mmsghdr> rx_msgs_;

  SendmmsgFn sendmmsg_fn_;
  RecvmmsgFn recvmmsg_fn_;
  Stats stats_;
};

}  // namespace ssr::net
