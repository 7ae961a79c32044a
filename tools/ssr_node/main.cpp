// ssr_node — one full-stack protocol node over real UDP sockets.
//
//   ssr_node --id N --peers FILE [--seconds S] [--increments K]
//            [--tick-us T] [--vs] [--seed R] [--aggressive]
//            [--adopt-joiners] [--exhaust-bound B] [--port-file FILE]
//
// FILE holds one "id host port" triple per line ('#' starts a comment);
// the entry matching --id is the local bind address. Port 0 anywhere means
// "not known yet": the local entry binds an OS-assigned port, and foreign
// port-0 entries make the daemon re-read the file periodically until every
// port is known — so a whole cohort can bind port 0, report through
// --port-file, and find each other once the launcher rewrites the map.
//
// The daemon boots the node against every other entry and prints progress
// markers to stdout:
//
//   SSR_NODE_START id=1 port=921 control=922  ports (also in --port-file)
//   CONVERGED t=2.1s config={1,2,3}           noReco + common proper config
//   INCREMENT_OK seqn=4                       one counter increment done
//   SSR_NODE_DONE                             all goals met (stays up)
//
// Exit status: 0 when the goals (convergence, plus --increments completed
// operations) were met — whether the deadline ran out or SIGTERM/SIGINT
// arrived first — and 3 when they were not.
//
// A control socket (UDP on 127.0.0.1, OS-assigned port) accepts the
// scenario::ctl command set — STATUS snapshots, peer-filter partitions,
// workload injection, peer-map reload, and transient-fault injection. The
// process scenario backend drives whole fault scripts through it; see
// src/scenario/control.hpp for the command reference.
//
// This is the real-deployment counterpart of harness::World: the identical
// node stack, parameterized only by the transport underneath it.

#include <arpa/inet.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "label/label.hpp"
#include "net/udp_transport.hpp"
#include "node/node.hpp"
#include "node/snapshot.hpp"
#include "scenario/control.hpp"
#include "util/wallclock.hpp"

namespace {

using namespace ssr;

/// Token-link pacing over real sockets: the retransmit period and the ack
/// threshold, which trades round (heartbeat) rate against duplicate
/// tolerance since real sockets have no fixed channel capacity.
///
/// Simulated links send about one copy per round trip / capacity
/// (dlink::LinkConfig::for_channel), so a channel's mean load stays at its
/// capacity. A threshold of 3 = 2·1 + 1 treats the socket as a capacity-1
/// channel, for which that rule allows one copy per round trip. A localhost
/// round trip takes tens of microseconds, so 2 ms already sends far more
/// slowly than the rule allows and needs no derivation. The daemons keep
/// bare acks (LinkConfig::piggyback_acks off): a reply that carried a copy
/// would be answered within that round trip, so the links would send one
/// copy per reply gap instead of one per period.
constexpr SimTime kRetransmitPeriod = 2000 * kUsec;
constexpr std::size_t kAckThreshold = 3;

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

struct Options {
  NodeId id = kNoNode;
  std::string peers_file;
  std::string port_file;
  std::uint64_t seconds = 60;
  std::uint64_t increments = 0;
  std::uint64_t tick_us = 5000;
  std::uint64_t seed = 0;  // 0 = derive from id
  std::uint64_t exhaust_bound = 0;  // 0 = keep the counter default
  bool enable_vs = false;
  bool aggressive = false;
  bool adopt_joiners = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: ssr_node --id N --peers FILE [--seconds S=60]\n"
               "                [--increments K=0] [--tick-us T=5000] [--vs]\n"
               "                [--seed R] [--aggressive] [--adopt-joiners]\n"
               "                [--exhaust-bound B] [--port-file FILE]\n");
  return 2;
}

/// One parse of the peers file; nullopt when unreadable. Lines that do not
/// parse as "id host port" are skipped (comments, blanks).
std::optional<std::map<NodeId, net::UdpEndpoint>> read_peers(
    const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open peers file '" + path + "'";
    return std::nullopt;
  }
  std::map<NodeId, net::UdpEndpoint> out;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::uint32_t id = 0;
    net::UdpEndpoint ep;
    if (!(ls >> id >> ep.host >> ep.port)) continue;  // blank / comment
    in_addr probe{};
    if (::inet_pton(AF_INET, ep.host.c_str(), &probe) != 1) {
      *error = "peers file '" + path + "': host '" + ep.host +
               "' is not a numeric IPv4 address";
      return std::nullopt;
    }
    out[id] = ep;
  }
  return out;
}

/// The daemon: node stack + control server + workload engines, driven by
/// one single-threaded loop.
class Daemon {
 public:
  Daemon(const Options& opt, net::UdpTransportConfig tcfg, IdSet all_ids)
      : opt_(opt),
        all_ids_(std::move(all_ids)),
        transport_(std::move(tcfg)),
        rng_(opt.seed != 0 ? opt.seed : 0x55D9 + opt.id),
        corrupt_rng_(rng_.fork()) {
    for (const auto& [id, ep] : transport_.config().peers) {
      if (id != opt_.id && ep.port == 0) unresolved_.insert(id);
    }

    node::NodeConfig ncfg;
    ncfg.enable_vs = opt_.enable_vs;
    ncfg.tick_period = opt_.tick_us;
    ncfg.mux.link.retransmit_period = kRetransmitPeriod;
    ncfg.mux.link.threshold = kAckThreshold;
    if (opt_.exhaust_bound != 0) {
      ncfg.counter.exhaust_bound = opt_.exhaust_bound;
    }
    node_ = std::make_unique<node::Node>(transport_, opt_.id, ncfg,
                                         rng_.fork());
    if (opt_.aggressive || opt_.adopt_joiners) {
      // The scenario spec's aggressive_policy / adopt_joiners flags.
      node_->set_eval_conf(node::prediction_policy(*node_, opt_.aggressive,
                                                   opt_.adopt_joiners));
    }
    node_->recsa().add_config_change_handler(
        [this](const reconf::ConfigValue&) { ++config_changes_; });
  }

  int run() {
    IdSet seed_peers = all_ids_;
    seed_peers.erase(opt_.id);
    node_->start(seed_peers);
    std::printf("SSR_NODE_START id=%u port=%u control=%u peers=%s\n", opt_.id,
                transport_.local_port(), control_.port(),
                seed_peers.to_string().c_str());
    std::fflush(stdout);
    if (!opt_.port_file.empty()) {
      // Written atomically (rename) so a half-written file is never read.
      const std::string tmp = opt_.port_file + ".tmp";
      if (std::ofstream pf(tmp); pf) {
        pf << transport_.local_port() << ' ' << control_.port() << '\n';
      }
      std::rename(tmp.c_str(), opt_.port_file.c_str());
    }

    const SimTime deadline = opt_.seconds * kSec;
    pending_increments_ = 0;  // --increments waits for convergence below
    SimTime next_status = 5 * kSec;
    SimTime next_peer_poll = 0;

    while (!g_stop && transport_.now() < deadline) {
      transport_.run_for(20 * kMsec);
      control_.poll([this](const scenario::ctl::Request& req) {
        return handle_control(req);
      });
      if (!unresolved_.empty() && transport_.now() >= next_peer_poll) {
        next_peer_poll = transport_.now() + 200 * kMsec;
        reload_peers();
      }
      drive_workload();

      const double t = static_cast<double>(transport_.now()) / kSec;
      const reconf::ConfigValue cfg = node_->recsa().get_config();
      if (!converged_ && node_->recsa().no_reco() && cfg.is_proper() &&
          cfg.ids() == all_ids_) {
        converged_ = true;
        pending_increments_ += opt_.increments;
        std::printf("CONVERGED t=%.1fs config=%s\n", t,
                    cfg.to_string().c_str());
        std::fflush(stdout);
      }
      if (converged_ && increments_done_ >= opt_.increments &&
          !done_printed_) {
        done_printed_ = true;
        std::printf("SSR_NODE_DONE\n");
        std::fflush(stdout);
      }
      if (transport_.now() >= next_status) {
        next_status += 5 * kSec;
        std::printf("STATUS %s\n", status().c_str());
        std::fflush(stdout);
      }
    }

    std::printf("SSR_NODE_EXIT ok=%d\n", done_printed_ ? 1 : 0);
    std::fflush(stdout);
    return done_printed_ ? 0 : 3;
  }

 private:
  struct DoneOp {
    std::uint64_t started = 0;   // steady_usec() at begin()
    std::uint64_t finished = 0;  // steady_usec() at completion
    counter::Counter value;
  };

  /// Re-reads the peers file: resolves port-0 entries, adopts new ids.
  /// Never downgrades a resolved route (a port-0 line for a known peer just
  /// means the launcher has not filled it in yet).
  void reload_peers() {
    std::string err;
    auto parsed = read_peers(opt_.peers_file, &err);
    if (!parsed) return;  // transient rewrite race — retry next poll
    for (const auto& [id, ep] : *parsed) {
      if (id == opt_.id) continue;
      const bool known = all_ids_.contains(id);
      if (!known) {
        all_ids_.insert(id);
        if (ep.port == 0) unresolved_.insert(id);
      }
      if (ep.port != 0) {
        transport_.set_peer(id, ep);
        unresolved_.erase(id);
      }
    }
  }

  void drive_workload() {
    // Counter increments, strictly sequential: at most one in flight, and
    // an abort re-queues the same operation (every protocol user is a
    // self-stabilizing retry loop).
    if (pending_increments_ > 0 && !increment_in_flight_ &&
        !node_->increment().busy()) {
      // Set the flag before begin(): an increment refused mid-reconf runs
      // the callback synchronously, and the callback must win over the
      // begin() return value or the abort would latch the flag forever.
      increment_in_flight_ = true;
      const std::uint64_t started = steady_usec();
      const bool begun = node_->increment().begin(
          [this, started](std::optional<counter::Counter> c) {
            increment_in_flight_ = false;
            if (c) {
              if (pending_increments_ > 0) --pending_increments_;
              ++increments_done_;
              done_ops_.push_back(DoneOp{started, steady_usec(), *c});
              std::printf("INCREMENT_OK seqn=%llu\n",
                          static_cast<unsigned long long>(c->seqn));
            } else {
              ++increments_aborted_;
              std::printf("INCREMENT_ABORT\n");  // legal during reconf; retry
            }
            std::fflush(stdout);
          });
      if (!begun) increment_in_flight_ = false;
    }

    // Shared-memory register operations, same discipline.
    if (!shmem_queue_.empty() && !shmem_in_flight_ &&
        !node_->registers().busy()) {
      const auto [write, reg, salt] = shmem_queue_.front();
      shmem_in_flight_ = true;
      bool begun;
      // An aborted operation stays queued and is retried on a later lap
      // (reconfigurations legally abort in-flight quorum ops).
      auto complete = [this](bool ok) {
        shmem_in_flight_ = false;
        if (ok) {
          shmem_queue_.erase(shmem_queue_.begin());
          ++shmem_ok_;
        } else {
          ++shmem_failed_;
        }
      };
      if (write) {
        wire::Bytes payload;
        for (int i = 0; i < 8; ++i) {
          payload.push_back(
              static_cast<std::uint8_t>((salt + opt_.id) >> (8 * i) & 0xFF));
        }
        begun = node_->registers().write(
            reg, std::move(payload),
            [complete](bool ok, counter::Counter) { complete(ok); });
      } else {
        begun = node_->registers().read(
            reg, [complete](bool ok, const wire::Bytes&, counter::Counter) {
              complete(ok);
            });
      }
      if (!begun) shmem_in_flight_ = false;
    }
  }

  /// The STATUS body: the node snapshot, then the daemon counters.
  std::string status() {
    namespace ctl = scenario::ctl;
    const net::UdpTransport::Stats& ts = transport_.stats();
    std::ostringstream os;
    os << ctl::format_snapshot(node::NodeSnapshot::of(*node_))
       << " t=" << transport_.now() << " abs=" << steady_usec()
       << " cfgchanges=" << config_changes_
       << " trusted=" << ctl::format_ids(node_->failure_detector().trusted())
       << " incq=" << pending_increments_ << " incdone=" << increments_done_
       << " incabort=" << increments_aborted_
       << " shmq=" << shmem_queue_.size() << " shmok=" << shmem_ok_
       << " shmfail=" << shmem_failed_ << " sent=" << ts.sent
       << " recv=" << ts.received << " malformed=" << ts.dropped_malformed
       << " filtin=" << ts.filtered_in << " filtout=" << ts.filtered_out
       << " syscalls=" << ts.send_syscalls + ts.recv_syscalls
       << " batched=" << ts.batched_sends << " noroute=" << ts.no_route
       << " sendfail=" << ts.send_failures << " partial=" << ts.send_partial
       << " recverr=" << ts.recv_errors;
    return os.str();
  }

  std::string handle_control(const scenario::ctl::Request& req) {
    namespace ctl = scenario::ctl;
    const auto& a = req.args;
    if (req.cmd == "STATUS") return "OK " + status();
    if (req.cmd == "BLOCK" && a.size() == 1) {
      auto ids = ctl::parse_ids(a[0]);
      if (!ids) return "ERR bad id list";
      transport_.set_blocked(std::move(*ids));
      return "OK";
    }
    if (req.cmd == "PEER" && a.size() == 3) {
      net::UdpEndpoint ep;
      ep.host = a[1];
      ep.port = static_cast<std::uint16_t>(std::strtoul(a[2].c_str(),
                                                        nullptr, 10));
      in_addr probe{};
      if (::inet_pton(AF_INET, ep.host.c_str(), &probe) != 1) {
        return "ERR bad host";
      }
      const NodeId id =
          static_cast<NodeId>(std::strtoul(a[0].c_str(), nullptr, 10));
      transport_.set_peer(id, ep);
      all_ids_.insert(id);
      unresolved_.erase(id);
      return "OK";
    }
    if (req.cmd == "RELOAD" && a.empty()) {
      reload_peers();
      return "OK";
    }
    if (req.cmd == "INC" && a.size() == 1) {
      pending_increments_ += std::strtoull(a[0].c_str(), nullptr, 10);
      return "OK";
    }
    if (req.cmd == "OPS" && a.size() <= 1) {
      // Paged: "OPS <from>" replies ops [from, from+page) plus the total,
      // so the reply datagram stays bounded no matter how many operations
      // completed (the runner iterates until its cursor reaches total).
      constexpr std::size_t kOpsPerReply = 200;
      std::size_t from = 0;
      if (!a.empty()) from = std::strtoull(a[0].c_str(), nullptr, 10);
      std::ostringstream os;
      os << "OK total=" << done_ops_.size();
      const std::size_t end =
          std::min(done_ops_.size(), from + kOpsPerReply);
      for (std::size_t i = from; i < end; ++i) {
        const DoneOp& op = done_ops_[i];
        wire::Writer w;
        op.value.encode(w);
        os << " op=" << op.started << ':' << op.finished << ':'
           << ctl::hex_encode(w.take());
      }
      return os.str();
    }
    if (req.cmd == "SHMEMW" && a.size() == 2) {
      shmem_queue_.emplace_back(true, a[0],
                                std::strtoull(a[1].c_str(), nullptr, 10));
      return "OK";
    }
    if (req.cmd == "SHMEMR" && a.size() == 1) {
      shmem_queue_.emplace_back(false, a[0], 0);
      return "OK";
    }
    if (req.cmd == "CORRUPT" && a.size() == 2 && a[0] == "recsa") {
      auto ids = ctl::parse_ids(a[1]);
      if (!ids) return "ERR bad id list";
      node_->recsa().inject_corruption(corrupt_rng_, *ids);
      return "OK";
    }
    if (req.cmd == "CORRUPT" && a.size() == 1 && a[0] == "fd") {
      node_->failure_detector().inject_corruption(corrupt_rng_);
      return "OK";
    }
    if (req.cmd == "CONF" && a.size() == 1) {
      auto ids = ctl::parse_ids(a[0]);
      if (!ids) return "ERR bad id list";
      node_->recsa().inject_config(opt_.id, reconf::ConfigValue::set(*ids));
      return "OK";
    }
    if (req.cmd == "PLANT_CTR" && a.size() == 1) {
      counter::Counter c;
      c.lbl = label::Label::next_label(opt_.id, {}, corrupt_rng_);
      c.seqn = std::strtoull(a[0].c_str(), nullptr, 10);
      c.wid = opt_.id;
      node_->counters().store().inject_max(opt_.id,
                                           counter::CounterPair::of(c));
      return "OK";
    }
    if (req.cmd == "RECMA" && a.size() == 3) {
      auto ids = ctl::parse_ids(a[2]);
      if (!ids) return "ERR bad id list";
      for (NodeId other : *ids) {
        node_->recma().inject_flags(other, a[0] == "1", a[1] == "1");
      }
      return "OK";
    }
    return "ERR unknown command";
  }

  Options opt_;
  IdSet all_ids_;
  net::UdpTransport transport_;
  Rng rng_;
  Rng corrupt_rng_;
  scenario::ctl::ControlServer control_;
  std::unique_ptr<node::Node> node_;
  IdSet unresolved_;

  bool converged_ = false;
  bool done_printed_ = false;
  std::uint64_t config_changes_ = 0;

  std::uint64_t pending_increments_ = 0;
  bool increment_in_flight_ = false;
  std::uint64_t increments_done_ = 0;
  std::uint64_t increments_aborted_ = 0;
  std::vector<DoneOp> done_ops_;

  std::vector<std::tuple<bool, std::string, std::uint64_t>> shmem_queue_;
  bool shmem_in_flight_ = false;
  std::uint64_t shmem_ok_ = 0;
  std::uint64_t shmem_failed_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--id" && i + 1 < argc) {
      opt.id = static_cast<NodeId>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--peers" && i + 1 < argc) {
      opt.peers_file = argv[++i];
    } else if (arg == "--port-file" && i + 1 < argc) {
      opt.port_file = argv[++i];
    } else if (arg == "--seconds" && i + 1 < argc) {
      opt.seconds = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--increments" && i + 1 < argc) {
      opt.increments = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--tick-us" && i + 1 < argc) {
      opt.tick_us = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--exhaust-bound" && i + 1 < argc) {
      opt.exhaust_bound = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--vs") {
      opt.enable_vs = true;
    } else if (arg == "--aggressive") {
      opt.aggressive = true;
    } else if (arg == "--adopt-joiners") {
      opt.adopt_joiners = true;
    } else {
      return usage();
    }
  }
  if (opt.id == kNoNode || opt.peers_file.empty()) return usage();

  std::string err;
  auto peers = read_peers(opt.peers_file, &err);
  if (!peers) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  if (peers->count(opt.id) == 0) {
    std::fprintf(stderr, "--id %u has no entry in '%s'\n", opt.id,
                 opt.peers_file.c_str());
    return 2;
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  net::UdpTransportConfig tcfg;
  tcfg.self = opt.id;
  tcfg.peers = *peers;
  ssr::IdSet all_ids;
  for (const auto& [id, ep] : *peers) {
    (void)ep;
    all_ids.insert(id);
  }

  Daemon daemon(opt, std::move(tcfg), std::move(all_ids));
  return daemon.run();
}
