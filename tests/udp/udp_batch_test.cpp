// Syscall-batching datapath tests: the sendmmsg ring (flush on full, on the
// explicit tick-boundary hook, and before a poll sleep), partial sendmmsg
// completions, per-datagram errors inside a batch, and the recvmmsg drain —
// including the EINTR-retry / real-error split that used to silently end a
// drain. Kernel edge cases are scripted through the transport's raw syscall
// seams, so every branch runs deterministically.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

#include "net/session.hpp"
#include "net/udp_transport.hpp"

namespace ssr::net {
namespace {

UdpTransportConfig self_only(NodeId id, std::size_t batch) {
  UdpTransportConfig cfg;
  cfg.self = id;
  cfg.peers[id] = UdpEndpoint{"127.0.0.1", 0};  // OS-assigned port
  cfg.batch = batch;
  return cfg;
}

/// Polls both endpoints until `pred` holds or `wall_ms` elapses.
template <class Pred>
bool pump(UdpTransport& a, UdpTransport& b, Pred pred, int wall_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(wall_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    a.poll_once(kMsec);
    b.poll_once(kMsec);
  }
  return pred();
}

// Scripted syscall state (reset per test; the seams are raw function
// pointers, so the script lives in globals).
struct SyscallScript {
  int send_calls = 0;
  int recv_calls = 0;
  unsigned clamp = 0;       // >0: send at most this many datagrams per call
  int fail_first_errno = 0;  // first call fails with this errno, then real
  int always_errno = 0;      // every call fails with this errno
};
SyscallScript g_script;

int scripted_sendmmsg(int fd, mmsghdr* msgs, unsigned n, int flags) {
  ++g_script.send_calls;
  if (g_script.always_errno != 0) {
    errno = g_script.always_errno;
    return -1;
  }
  if (g_script.fail_first_errno != 0 && g_script.send_calls == 1) {
    errno = g_script.fail_first_errno;
    return -1;
  }
  if (g_script.clamp > 0 && n > g_script.clamp) n = g_script.clamp;
  return static_cast<int>(::sendmmsg(fd, msgs, n, flags));
}

int scripted_recvmmsg(int fd, mmsghdr* msgs, unsigned n, int flags,
                      timespec* timeout) {
  ++g_script.recv_calls;
  if (g_script.always_errno != 0) {
    errno = g_script.always_errno;
    return -1;
  }
  if (g_script.fail_first_errno != 0 && g_script.recv_calls == 1) {
    errno = g_script.fail_first_errno;
    return -1;
  }
  return static_cast<int>(::recvmmsg(fd, msgs, n, flags, timeout));
}

// -- Ring flush points -------------------------------------------------------

TEST(UdpBatch, RingFullTriggersOneSendmmsgForTheWholeBatch) {
  UdpTransport a(self_only(1, 4)), b(self_only(2, 4));
  a.set_peer(2, UdpEndpoint{"127.0.0.1", b.local_port()});
  std::size_t b_got = 0;
  b.attach(2, [&](const Packet&) { ++b_got; });

  for (std::uint8_t i = 0; i < 4; ++i) a.send(1, 2, wire::Bytes{i});
  // The 4th send filled the ring: everything left in one syscall already.
  EXPECT_EQ(a.stats().send_syscalls, 1u);
  EXPECT_EQ(a.stats().sent, 4u);
  EXPECT_EQ(a.stats().batched_sends, 4u);
  EXPECT_TRUE(pump(a, b, [&] { return b_got >= 4; }, 2000));
}

TEST(UdpBatch, ExplicitFlushDrainsAPartialRing) {
  UdpTransport a(self_only(1, 8)), b(self_only(2, 8));
  a.set_peer(2, UdpEndpoint{"127.0.0.1", b.local_port()});
  std::size_t b_got = 0;
  b.attach(2, [&](const Packet&) { ++b_got; });

  for (std::uint8_t i = 0; i < 3; ++i) a.send(1, 2, wire::Bytes{i});
  EXPECT_EQ(a.stats().send_syscalls, 0u);  // staged, nothing on the wire yet
  a.flush();  // the tick-boundary hook
  EXPECT_EQ(a.stats().send_syscalls, 1u);
  EXPECT_EQ(a.stats().sent, 3u);
  EXPECT_EQ(a.stats().batched_sends, 3u);
  a.flush();  // empty ring: no syscall
  EXPECT_EQ(a.stats().send_syscalls, 1u);
  EXPECT_TRUE(pump(a, b, [&] { return b_got >= 3; }, 2000));
}

TEST(UdpBatch, PollSleepFlushesStagedSendsFirst) {
  UdpTransport a(self_only(1, 16)), b(self_only(2, 16));
  a.set_peer(2, UdpEndpoint{"127.0.0.1", b.local_port()});
  std::size_t b_got = 0;
  b.attach(2, [&](const Packet&) { ++b_got; });

  a.send(1, 2, wire::Bytes{1});
  a.send(1, 2, wire::Bytes{2});
  EXPECT_EQ(a.stats().send_syscalls, 0u);
  // A poll must never sleep on a staged send: the ring flushes on entry.
  a.poll_once(kMsec);
  EXPECT_EQ(a.stats().send_syscalls, 1u);
  EXPECT_EQ(a.stats().sent, 2u);
  EXPECT_TRUE(pump(a, b, [&] { return b_got >= 2; }, 2000));
}

TEST(UdpBatch, BatchOfOneDegradesToUnbatchedWithNoSharedSyscalls) {
  UdpTransport a(self_only(1, 1)), b(self_only(2, 1));
  a.set_peer(2, UdpEndpoint{"127.0.0.1", b.local_port()});
  std::size_t b_got = 0;
  b.attach(2, [&](const Packet&) { ++b_got; });

  for (std::uint8_t i = 0; i < 5; ++i) a.send(1, 2, wire::Bytes{i});
  EXPECT_EQ(a.stats().send_syscalls, 5u);  // one per datagram
  EXPECT_EQ(a.stats().sent, 5u);
  EXPECT_EQ(a.stats().batched_sends, 0u);  // nothing ever shared a syscall
  EXPECT_TRUE(pump(a, b, [&] { return b_got >= 5; }, 2000));
}

// -- Send-side taxonomy ------------------------------------------------------

TEST(UdpBatch, MissingRouteCountsNoRouteNotSendFailure) {
  UdpTransport a(self_only(1, 4));
  a.send(1, 99, wire::Bytes{1});  // no route to 99
  EXPECT_EQ(a.stats().no_route, 1u);
  EXPECT_EQ(a.stats().send_failures, 0u);
  a.flush();
  EXPECT_EQ(a.stats().send_syscalls, 0u);  // nothing was staged
}

TEST(UdpBatch, PartialSendmmsgReturnResumesAtFirstUnsentDatagram) {
  UdpTransport a(self_only(1, 4)), b(self_only(2, 4));
  a.set_peer(2, UdpEndpoint{"127.0.0.1", b.local_port()});
  std::size_t b_got = 0;
  b.attach(2, [&](const Packet&) { ++b_got; });

  g_script = SyscallScript{};
  g_script.clamp = 3;  // kernel "accepts" at most 3 datagrams per call
  a.set_syscall_hooks(&scripted_sendmmsg, nullptr);
  for (std::uint8_t i = 0; i < 4; ++i) a.send(1, 2, wire::Bytes{i});
  a.set_syscall_hooks(nullptr, nullptr);

  // 3 + 1: the flush loop resumed at the unsent tail, losing nothing.
  EXPECT_EQ(g_script.send_calls, 2);
  EXPECT_EQ(a.stats().send_syscalls, 2u);
  EXPECT_EQ(a.stats().sent, 4u);
  EXPECT_EQ(a.stats().send_failures, 0u);
  EXPECT_EQ(a.stats().batched_sends, 3u);  // the singleton tail rides alone
  EXPECT_TRUE(pump(a, b, [&] { return b_got >= 4; }, 2000));
}

TEST(UdpBatch, PerDatagramErrorSkipsTheHeadAndFlushesTheRest) {
  UdpTransport a(self_only(1, 4)), b(self_only(2, 4));
  a.set_peer(2, UdpEndpoint{"127.0.0.1", b.local_port()});
  std::size_t b_got = 0;
  b.attach(2, [&](const Packet&) { ++b_got; });

  g_script = SyscallScript{};
  g_script.fail_first_errno = EACCES;  // head datagram is rejected outright
  a.set_syscall_hooks(&scripted_sendmmsg, nullptr);
  for (std::uint8_t i = 0; i < 4; ++i) a.send(1, 2, wire::Bytes{i});
  a.set_syscall_hooks(nullptr, nullptr);

  EXPECT_EQ(a.stats().send_failures, 1u);  // the poisoned head
  EXPECT_EQ(a.stats().sent, 3u);           // the rest still went out
  EXPECT_EQ(a.stats().send_syscalls, 1u);
  EXPECT_TRUE(pump(a, b, [&] { return b_got >= 3; }, 2000));
}

TEST(UdpBatch, KernelBackpressureDropsTheRingAsLosses) {
  UdpTransport a(self_only(1, 4));
  a.set_peer(2, UdpEndpoint{"127.0.0.1", 9});  // never delivered anyway

  g_script = SyscallScript{};
  g_script.always_errno = ENOBUFS;
  a.set_syscall_hooks(&scripted_sendmmsg, nullptr);
  for (std::uint8_t i = 0; i < 4; ++i) a.send(1, 2, wire::Bytes{i});
  EXPECT_EQ(a.stats().send_failures, 4u);  // whole ring charged as lost
  EXPECT_EQ(a.stats().sent, 0u);
  EXPECT_EQ(a.stats().send_syscalls, 0u);

  // The ring is empty again: the transport keeps working once the
  // backpressure clears.
  a.set_syscall_hooks(nullptr, nullptr);
  a.send(1, 2, wire::Bytes{1});
  a.flush();
  EXPECT_EQ(a.stats().sent, 1u);
}

// -- Receive side ------------------------------------------------------------

TEST(UdpBatch, RecvmmsgDrainSplitsWellFormedFromGarbage) {
  UdpTransport t(self_only(1, 8));
  std::size_t delivered = 0;
  t.attach(1, [&](const Packet&) { ++delivered; });

  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(t.local_port());
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const auto fire = [&](const wire::Bytes& d) {
    ASSERT_EQ(::sendto(raw, d.data(), d.size(), 0,
                       reinterpret_cast<sockaddr*>(&to), sizeof(to)),
              static_cast<ssize_t>(d.size()));
  };

  // One burst interleaving good envelopes, garbage and a truncation — a
  // single recvmmsg drain must sort them all.
  fire(Session::encode_envelope(5, 1, {1}));
  fire(wire::Bytes{0xFF, 0xEE, 0xDD});
  fire(Session::encode_envelope(5, 1, {2}));
  wire::Bytes cut = Session::encode_envelope(5, 1, {3});
  cut.resize(cut.size() - 2);
  fire(cut);
  fire(Session::encode_envelope(5, 1, {5}));
  ::close(raw);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline && delivered < 3) {
    t.poll_once(kMsec);
  }
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(t.stats().received, 3u);
  EXPECT_EQ(t.stats().dropped_malformed, 2u);
  EXPECT_EQ(t.stats().recv_errors, 0u);
  EXPECT_GE(t.stats().recv_syscalls, 1u);
}

TEST(UdpBatch, StraySignalRetriesTheDrainInsteadOfEndingIt) {
  UdpTransport a(self_only(1, 4)), b(self_only(2, 4));
  a.set_peer(2, UdpEndpoint{"127.0.0.1", b.local_port()});
  std::size_t b_got = 0;
  b.attach(2, [&](const Packet&) { ++b_got; });

  a.send(1, 2, wire::Bytes{1});
  a.flush();

  g_script = SyscallScript{};
  g_script.fail_first_errno = EINTR;  // a signal lands mid-drain
  b.set_syscall_hooks(nullptr, &scripted_recvmmsg);
  EXPECT_TRUE(pump(a, b, [&] { return b_got >= 1; }, 2000));
  b.set_syscall_hooks(nullptr, nullptr);
  EXPECT_GE(g_script.recv_calls, 2);  // EINTR, then the retry that delivered
  EXPECT_EQ(b.stats().recv_errors, 0u);  // EINTR is not an error
}

TEST(UdpBatch, RealReceiveErrorsAreCountedNotSilent) {
  UdpTransport a(self_only(1, 4)), b(self_only(2, 4));
  a.set_peer(2, UdpEndpoint{"127.0.0.1", b.local_port()});
  b.attach(2, [](const Packet&) {});

  a.send(1, 2, wire::Bytes{1});
  a.flush();

  g_script = SyscallScript{};
  g_script.always_errno = EIO;
  b.set_syscall_hooks(nullptr, &scripted_recvmmsg);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline &&
         b.stats().recv_errors == 0) {
    b.poll_once(kMsec);
  }
  EXPECT_GE(b.stats().recv_errors, 1u);
  EXPECT_EQ(b.stats().received, 0u);
  b.set_syscall_hooks(nullptr, nullptr);
}

}  // namespace
}  // namespace ssr::net
