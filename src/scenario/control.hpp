#pragma once

// Control channel between a scenario process-backend runner and the
// ssr_node daemons it spawns (POSIX only, like the UDP transport).
//
// Transport: one UDP datagram per request and per reply on 127.0.0.1. The
// wire format is line-oriented text for debuggability (`nc -u` works):
//
//   request:  "<reqid> <CMD> [args...]"
//   reply:    "<reqid> OK [payload]"   |   "<reqid> ERR <message>"
//
// Loopback UDP can still drop under pressure, so the client retries a
// request with the *same* reqid until the matching reply arrives; the
// server caches its last reply and re-sends it on a duplicate reqid
// instead of re-applying the command. A single sequential client is
// assumed (the process runner), which makes one cache slot sufficient.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "node/snapshot.hpp"
#include "util/id_set.hpp"
#include "util/types.hpp"
#include "wire/wire.hpp"

namespace ssr::scenario::ctl {

struct Request {
  std::uint64_t reqid = 0;
  std::string cmd;
  std::vector<std::string> args;
};

/// Parses "<reqid> <CMD> [args...]"; nullopt on malformed input.
std::optional<Request> parse_request(const std::string& line);

// -- Payload helpers ---------------------------------------------------------

/// "1,2,3"; "-" for the empty set (an empty token is not a valid field).
std::string format_ids(const IdSet& ids);
std::optional<IdSet> parse_ids(const std::string& s);

/// Splits a reply payload of "k=v" tokens; tokens without '=' are skipped.
std::map<std::string, std::string> parse_kv(const std::string& payload);

std::string hex_encode(const wire::Bytes& b);
std::optional<wire::Bytes> hex_decode(const std::string& s);

/// The node half of a STATUS reply, the only writer of these fields:
///   id=<id> noreco=<0|1> part=<0|1> cfgtag=<ConfigValue::Tag> cfg=<ids|->
///   adv=<0|1>
/// and, when the node runs the VS layer,
///   vsmc=<0|1> vsnocrd=<0|1> vscrd=<id> vsview=<hex of vs::View::encode>
std::string format_snapshot(const node::NodeSnapshot& s);
/// The only reader of format_snapshot's fields, from a STATUS payload's
/// parse_kv map (other keys are ignored). nullopt when a node field is
/// missing or malformed: a flag other than 0/1, an unknown cfgtag, a cfg
/// that contradicts its tag, bad hex, or a view that does not decode
/// exactly.
std::optional<node::NodeSnapshot> parse_snapshot(
    const std::map<std::string, std::string>& kv);

/// ssr_node's control-socket command set (shared so the runner and the
/// daemon cannot drift apart):
///   STATUS                       format_snapshot, then the daemon's
///                                counters (cfgchanges= incq= sent= ...)
///   BLOCK <ids|->                install the transport peer filter
///   PEER <id> <host> <port>      add/rebind one transport route
///   RELOAD                      re-read the peers file now
///   INC <n>                      queue n sequential counter increments
///   OPS                          completed increments: op=<start>:<end>:<hex>
///   SHMEMW <reg> <salt>          queue one register write
///   SHMEMR <reg>                 queue one register read
///   CORRUPT recsa <ids>          arbitrary recSA state naming ids of <ids>
///                                (the fleet's alive set)
///   CORRUPT fd                   scramble the failure-detector counts
///   CONF <ids>                   plant a believed configuration
///   PLANT_CTR <seqn>             plant a near-exhausted counter
///   RECMA <nomaj> <needreconf> <ids>
///                                plant stale recMA flags (0/1 each) on the
///                                entry of every id in <ids> (the fleet's
///                                alive set, the node itself included)

// -- Endpoints ---------------------------------------------------------------

/// Daemon side: a non-blocking UDP socket on 127.0.0.1, OS-picked port.
class ControlServer {
 public:
  /// Handler returns the reply body ("OK ..." / "ERR ..."); the server
  /// prepends the reqid and handles duplicate-request re-sends itself.
  using HandlerFn = std::function<std::string(const Request&)>;

  ControlServer();
  ~ControlServer();
  ControlServer(const ControlServer&) = delete;
  ControlServer& operator=(const ControlServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Drains every pending request (non-blocking); call from the daemon's
  /// main loop between transport polls.
  void poll(const HandlerFn& handler);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t last_reqid_ = 0;
  std::string last_reply_;
  std::vector<char> buf_;
};

/// Runner side: one socket shared across every daemon (ports differ).
class ControlClient {
 public:
  ControlClient();
  ~ControlClient();
  ControlClient(const ControlClient&) = delete;
  ControlClient& operator=(const ControlClient&) = delete;

  /// Sends `cmd` to 127.0.0.1:`port` and waits for the matching reply,
  /// retrying with the same reqid. Returns the reply body ("OK ..." /
  /// "ERR ...") or nullopt when every attempt timed out (daemon dead).
  std::optional<std::string> request(std::uint16_t port,
                                     const std::string& cmd,
                                     int timeout_ms = 500, int attempts = 8);

 private:
  int fd_ = -1;
  std::uint64_t next_reqid_ = 1;
  std::vector<char> buf_;
};

}  // namespace ssr::scenario::ctl
