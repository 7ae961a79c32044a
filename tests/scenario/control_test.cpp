// Control-channel protocol: framing, payload helpers, and the
// client/server pair over a real loopback socket — including the
// duplicate-request replay that keeps retried commands idempotent.
#include "scenario/control.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ssr::scenario::ctl {
namespace {

TEST(ControlProtocol, ParsesRequests) {
  auto r = parse_request("42 BLOCK 1,2,3");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->reqid, 42u);
  EXPECT_EQ(r->cmd, "BLOCK");
  ASSERT_EQ(r->args.size(), 1u);
  EXPECT_EQ(r->args[0], "1,2,3");

  EXPECT_TRUE(parse_request("7 STATUS").has_value());
  EXPECT_FALSE(parse_request("").has_value());
  EXPECT_FALSE(parse_request("STATUS").has_value());  // no reqid
  EXPECT_FALSE(parse_request("9").has_value());       // no command
}

TEST(ControlProtocol, IdListsRoundtrip) {
  EXPECT_EQ(format_ids({}), "-");
  EXPECT_EQ(format_ids({3, 1, 2}), "1,2,3");
  auto ids = parse_ids("1,2,3");
  ASSERT_TRUE(ids.has_value());
  EXPECT_EQ(*ids, (IdSet{1, 2, 3}));
  auto none = parse_ids("-");
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
  EXPECT_FALSE(parse_ids("").has_value());
  EXPECT_FALSE(parse_ids("1,,2").has_value());
  EXPECT_FALSE(parse_ids("1,x").has_value());
}

TEST(ControlProtocol, KvAndHexRoundtrip) {
  const auto kv = parse_kv("a=1 b=xyz malformed c=2");
  EXPECT_EQ(kv.at("a"), "1");
  EXPECT_EQ(kv.at("b"), "xyz");
  EXPECT_EQ(kv.at("c"), "2");
  EXPECT_EQ(kv.count("malformed"), 0u);

  const wire::Bytes blob{0x00, 0x7F, 0xFF, 0x10};
  const std::string hex = hex_encode(blob);
  EXPECT_EQ(hex, "007fff10");
  auto back = hex_decode(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, blob);
  EXPECT_FALSE(hex_decode("abc").has_value());   // odd length
  EXPECT_FALSE(hex_decode("zz").has_value());    // bad digit
}

// -- STATUS node snapshot -----------------------------------------------------

using node::NodeSnapshot;
using reconf::ConfigValue;

vs::View sample_view() {
  vs::View v;
  v.id.lbl.creator = 2;
  v.id.lbl.sting = 1234;
  v.id.lbl.antistings = {3, 9, 40};
  v.id.seqn = 41;
  v.id.wid = 2;
  v.set = {1, 2, 3};
  return v;
}

/// Every ConfigValue tag, each with the VS layer off, on with a null view,
/// and on with a real one.
std::vector<NodeSnapshot> sample_snapshots() {
  std::vector<NodeSnapshot> out;
  for (const ConfigValue& cfg :
       {ConfigValue::non_participant(), ConfigValue::bottom(),
        ConfigValue::set({}), ConfigValue::set({1, 2, 3})}) {
    for (int layer = 0; layer < 3; ++layer) {
      NodeSnapshot& s = out.emplace_back();
      s.id = 7;
      s.no_reco = cfg.is_set();
      s.participant = !cfg.is_non_participant();
      s.config = cfg;
      s.advised = cfg.is_proper();
      if (layer == 0) continue;
      NodeSnapshot::Vs& v = s.vs.emplace();
      v.multicast = layer == 2;
      v.no_coordinator = layer == 1;
      v.coordinator = layer == 1 ? kNoNode : 2;
      if (layer == 2) v.view = sample_view();
    }
  }
  return out;
}

NodeSnapshot vs_snapshot() { return sample_snapshots().back(); }

TEST(StatusSnapshot, RoundTripsThroughTheStatusReply) {
  for (const NodeSnapshot& s : sample_snapshots()) {
    // As ssr_node replies: the snapshot, then the daemon counters.
    const std::string payload =
        format_snapshot(s) + " cfgchanges=4 sent=10 recv=9 syscalls=3";
    const auto back = parse_snapshot(parse_kv(payload));
    ASSERT_TRUE(back.has_value()) << payload;
    EXPECT_EQ(*back, s) << payload;
    EXPECT_EQ(payload.find("vsnull"), std::string::npos);
  }
}

TEST(StatusSnapshot, WritesTheDocumentedKeys) {
  const auto kv = parse_kv(format_snapshot(vs_snapshot()));
  EXPECT_EQ(kv.at("id"), "7");
  EXPECT_EQ(kv.at("noreco"), "1");
  EXPECT_EQ(kv.at("part"), "1");
  EXPECT_EQ(kv.at("cfgtag"), "2");
  EXPECT_EQ(kv.at("cfg"), "1,2,3");
  EXPECT_EQ(kv.at("adv"), "1");
  EXPECT_EQ(kv.at("vsmc"), "1");
  EXPECT_EQ(kv.at("vsnocrd"), "0");
  EXPECT_EQ(kv.at("vscrd"), "2");
  wire::Writer w;
  sample_view().encode(w);
  EXPECT_EQ(kv.at("vsview"), hex_encode(w.take()));
  EXPECT_EQ(kv.size(), 10u);
}

TEST(StatusSnapshot, ParseRejectsMalformedNodeFields) {
  const auto good = parse_kv(format_snapshot(vs_snapshot()));
  ASSERT_TRUE(parse_snapshot(good).has_value());
  const auto with = [&good](std::map<std::string, std::string> changes) {
    auto kv = good;
    for (const auto& [k, v] : changes) kv[k] = v;
    return parse_snapshot(kv).has_value();
  };

  for (const auto& [key, value] : good) {  // every node key is required
    auto kv = good;
    kv.erase(key);
    EXPECT_FALSE(parse_snapshot(kv).has_value()) << key;
  }
  EXPECT_FALSE(with({{"cfgtag", "3"}}));
  EXPECT_FALSE(with({{"cfgtag", "x"}}));
  EXPECT_FALSE(with({{"cfgtag", "258"}}));  // 2 in a u8 cast
  EXPECT_FALSE(with({{"noreco", "2"}}));
  EXPECT_FALSE(with({{"id", "-1"}}));
  EXPECT_FALSE(with({{"id", "4294967296"}}));
  EXPECT_FALSE(with({{"vscrd", "1x"}}));
  // A cfg that contradicts its tag: only a set carries ids.
  EXPECT_FALSE(with({{"cfgtag", "0"}}));
  EXPECT_FALSE(with({{"cfgtag", "1"}}));
  EXPECT_TRUE(with({{"cfgtag", "1"}, {"cfg", "-"}}));
  EXPECT_FALSE(with({{"cfg", "1,,2"}}));
  // The view: bad hex, undecodable, trailing bytes.
  EXPECT_FALSE(with({{"vsview", "zz"}}));
  EXPECT_FALSE(with({{"vsview", good.at("vsview") + "0"}}));
  EXPECT_FALSE(with({{"vsview", "00"}}));
  EXPECT_FALSE(with({{"vsview", good.at("vsview") + "00"}}));
  EXPECT_FALSE(with({{"vsview", good.at("vsview").substr(2)}}));
}

TEST(StatusSnapshot, ParseSurvivesTruncatedReplies) {
  // Every prefix of a reply parses or is rejected; none crashes. A prefix
  // that ends before the VS keys reads as a node without the layer, which
  // no VS await accepts; any other accepted prefix is the whole reply.
  const NodeSnapshot full = vs_snapshot();
  const std::string payload = format_snapshot(full);
  for (std::size_t n = 0; n <= payload.size(); ++n) {
    const auto s = parse_snapshot(parse_kv(payload.substr(0, n)));
    if (s && s->vs) {
      EXPECT_EQ(*s, full) << payload.substr(0, n);
    }
  }
}

TEST(ControlEndpoints, RequestReplyOverLoopback) {
  ControlServer server;
  ControlClient client;
  ASSERT_NE(server.port(), 0);

  // The application counter is written by the server thread and read by the
  // test thread after join; the annotated mutex makes clang's thread-safety
  // analysis prove the discipline TSan checks at runtime.
  util::Mutex mu;
  int applications SSR_GUARDED_BY(mu) = 0;
  const auto handler = [&](const Request& req) -> std::string {
    if (req.cmd == "PING") {
      util::MutexLock lock(mu);
      return "OK pong=" + std::to_string(++applications);
    }
    return "ERR unknown command";
  };

  // The server is single-threaded by design (the daemon polls it between
  // transport laps); a helper thread stands in for that loop here.
  std::atomic<bool> stop{false};
  std::thread srv([&] {
    while (!stop.load()) {
      server.poll(handler);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  auto r1 = client.request(server.port(), "PING");
  auto r2 = client.request(server.port(), "PING");
  auto r3 = client.request(server.port(), "NOPE");
  stop.store(true);
  srv.join();

  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(*r1, "OK pong=1");
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, "OK pong=2");
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(*r3, "ERR unknown command");
  util::MutexLock lock(mu);
  EXPECT_EQ(applications, 2);
}

TEST(ControlEndpoints, DuplicateReqidReplaysCachedReply) {
  ControlServer server;
  int applications = 0;
  const auto handler = [&](const Request&) -> std::string {
    return "OK n=" + std::to_string(++applications);
  };

  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(server.port());
  const std::string wire = "7 PING";
  // The same reqid twice — a client retransmit after a lost reply.
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(::sendto(raw, wire.data(), wire.size(), 0,
                       reinterpret_cast<sockaddr*>(&to), sizeof(to)),
              static_cast<ssize_t>(wire.size()));
  }
  // Let both datagrams land, then drain them in one poll.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.poll(handler);

  char buf[256];
  std::string first, second;
  for (int i = 0; i < 50 && second.empty(); ++i) {
    const ssize_t n = ::recv(raw, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      (first.empty() ? first : second).assign(buf, static_cast<size_t>(n));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ::close(raw);
  EXPECT_EQ(first, "7 OK n=1");
  EXPECT_EQ(second, "7 OK n=1");  // replayed, not re-applied
  EXPECT_EQ(applications, 1);
}

}  // namespace
}  // namespace ssr::scenario::ctl
