#include "scenario/process_runner.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "counter/counter.hpp"
#include "reconf/config_value.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/wallclock.hpp"

namespace ssr::scenario {
namespace {

std::uint64_t parse_u64(const std::map<std::string, std::string>& kv,
                        const std::string& key) {
  auto it = kv.find(key);
  if (it == kv.end()) return 0;
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

/// Daemon do-forever tick (µs); smaller than the daemon's standalone
/// default to keep scaled scenarios snappy.
constexpr std::uint64_t kTickUs = 2000;
/// Floor for await budgets after scaling (process startup + real
/// convergence time dominate short awaits).
constexpr SimTime kMinAwait = 30 * kSec;

}  // namespace

ProcessRunner::ProcessRunner(ScenarioSpec spec, ProcessBackendOptions opt)
    : ScenarioBackend(std::move(spec), opt.seed),
      opt_(std::move(opt)),
      epoch_usec_(steady_usec()),
      registry_(InvariantRegistry::Clock([this] { return now(); })) {
  SSR_ASSERT(!opt_.node_binary.empty(),
             "ProcessBackendOptions.node_binary is required");
  if (opt_.work_dir.empty()) {
    std::string templ =
        (std::filesystem::temp_directory_path() / "ssr-scenario-XXXXXX")
            .string();
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    SSR_ASSERT(::mkdtemp(buf.data()) != nullptr, "mkdtemp failed");
    dir_ = buf.data();
    made_dir_ = true;
  } else {
    dir_ = opt_.work_dir;
  }
  std::filesystem::create_directories(dir_);
  trace_.set_clock([this] { return now(); });
}

ProcessRunner::~ProcessRunner() {
  for (auto& [id, p] : procs_) {
    if (p.pid > 0) {
      ::kill(p.pid, SIGKILL);  // kills stopped children too
      int status = 0;
      ::waitpid(p.pid, &status, 0);
      p.pid = -1;
    }
  }
  // Keep the directory (logs, peer maps) whenever something went wrong so
  // CI can upload it as an artifact.
  if (made_dir_ && !opt_.keep_dir && ran_ && !failed()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

SimTime ProcessRunner::now() const { return steady_usec() - epoch_usec_; }

SimTime ProcessRunner::scaled(SimTime sim_duration) const {
  return static_cast<SimTime>(static_cast<double>(sim_duration) *
                              opt_.time_scale);
}

SimTime ProcessRunner::await_budget(SimTime sim_duration) const {
  const SimTime s = scaled(sim_duration);
  return s < kMinAwait ? kMinAwait : s;
}

void ProcessRunner::step_sleep() const {
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
}

IdSet ProcessRunner::alive() {
  IdSet out;
  for (const auto& [id, p] : procs_) {
    if (p.alive) out.insert(id);
  }
  return out;
}

void ProcessRunner::fail_node(NodeId id, const std::string& what) {
  fail("node " + std::to_string(id) + " " + what);
}

// -- Process management ------------------------------------------------------

void ProcessRunner::write_cohort_peer_map() {
  // Atomic rewrite (tmp + rename): daemons re-read this file while any of
  // their entries still shows port 0.
  const std::string path = dir_ + "/peers.txt";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    for (const auto& [id, p] : procs_) {
      out << id << " 127.0.0.1 " << p.data_port << "\n";
    }
  }
  std::rename(tmp.c_str(), path.c_str());
}

void ProcessRunner::launch(NodeId id, const std::string& peers_path) {
  Proc& p = procs_[id];
  const std::string port_file = dir_ + "/port." + std::to_string(id);
  std::remove(port_file.c_str());
  const std::string log_file = dir_ + "/node-" + std::to_string(id) + ".log";

  std::vector<std::string> args = {
      opt_.node_binary,
      "--id", std::to_string(id),
      "--peers", peers_path,
      "--port-file", port_file,
      "--seconds", std::to_string(opt_.node_seconds),
      "--tick-us", std::to_string(kTickUs),
      "--seed",
      std::to_string((opt_.seed + 0x9E3779B97F4A7C15ULL) * 1000003ULL + id),
  };
  const ScenarioSpec& sp = spec();
  if (sp.enable_vs) args.push_back("--vs");
  if (sp.aggressive_policy) args.push_back("--aggressive");
  if (sp.adopt_joiners) args.push_back("--adopt-joiners");
  if (sp.exhaust_bound != 0) {
    args.push_back("--exhaust-bound");
    args.push_back(std::to_string(sp.exhaust_bound));
  }

  const int pid = ::fork();
  SSR_ASSERT(pid >= 0, "fork failed");
  if (pid == 0) {
    // Child: log to its own file, then become the daemon.
    const int fd = ::open(log_file.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::perror("execv ssr_node");
    ::_exit(127);
  }
  p.pid = pid;
  p.alive = true;
  p.paused = false;
  p.snap = {};
  p.ops_harvested = 0;
}

bool ProcessRunner::collect_ports(NodeId id) {
  Proc& p = procs_[id];
  const std::string port_file = dir_ + "/port." + std::to_string(id);
  const SimTime deadline = now() + 15 * kSec;
  while (now() < deadline) {
    std::ifstream in(port_file);
    unsigned data = 0, ctl = 0;
    if (in && (in >> data >> ctl) && data != 0 && ctl != 0) {
      p.data_port = static_cast<std::uint16_t>(data);
      p.ctl_port = static_cast<std::uint16_t>(ctl);
      return true;
    }
    int status = 0;
    if (::waitpid(p.pid, &status, WNOHANG) == p.pid) {
      p.alive = false;
      p.pid = -1;
      return false;  // died before binding — the log file has the story
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  return false;
}

void ProcessRunner::spawn(NodeId id) {
  // A late joiner gets its own map: every current cohort member with its
  // real port, plus itself at port 0 (bind-and-discover). Existing nodes
  // learn the newcomer's address from its first well-formed datagram.
  std::string peers_path = dir_ + "/peers." + std::to_string(id) + ".txt";
  {
    std::ofstream out(peers_path);
    for (const auto& [other, p] : procs_) {
      if (p.alive) out << other << " 127.0.0.1 " << p.data_port << "\n";
    }
    out << id << " 127.0.0.1 0\n";
  }
  launch(id, peers_path);
  trace_.record(TraceKind::kNodeAdded, id);
  if (!collect_ports(id)) fail_node(id, "failed to start");
}

void ProcessRunner::crash(NodeId id) {
  auto it = procs_.find(id);
  if (it == procs_.end() || !it->second.alive) return;
  Proc& p = it->second;
  // Completed operations die with the process; pull them first so the
  // counter-order record stays complete.
  if (!p.paused) harvest_ops_from(id, p);
  ::kill(p.pid, SIGKILL);  // kills stopped processes too
  int status = 0;
  ::waitpid(p.pid, &status, 0);
  p.pid = -1;
  p.alive = false;
  trace_.record(TraceKind::kNodeCrashed, id);
}

void ProcessRunner::pause(NodeId id) {
  auto it = procs_.find(id);
  if (it == procs_.end() || !it->second.alive) return;
  // Harvest first: a stopped process cannot answer OPS, and it may be
  // SIGKILLed before ever resuming.
  harvest_ops_from(id, it->second);
  ::kill(it->second.pid, SIGSTOP);
  it->second.paused = true;
  trace_.record(TraceKind::kNodePaused, id);
}

void ProcessRunner::resume(NodeId id) {
  auto it = procs_.find(id);
  if (it == procs_.end() || !it->second.alive || !it->second.paused) return;
  ::kill(it->second.pid, SIGCONT);
  it->second.paused = false;
  trace_.record(TraceKind::kNodeResumed, id);
  // Peer-filter updates (splits/heals) that happened while the node was
  // stopped were never delivered; reinstall the current set.
  control_or_fail(id, "BLOCK " + ctl::format_ids(blocked_[id]));
  // And sample immediately, so state from before the pause cannot be
  // attributed into a closure window opened later.
  sample_node(id, it->second);
}

// -- Sampling ----------------------------------------------------------------

bool ProcessRunner::sample_node(NodeId id, Proc& p) {
  auto reply = client_.request(p.ctl_port, "STATUS", 250, 2);
  if (!reply) {
    // Unreachable: either mid-GC busy (retry next round) or dead. Only an
    // observed exit is fatal — a wedged-alive node surfaces as an await
    // timeout instead.
    int status = 0;
    if (p.pid > 0 && ::waitpid(p.pid, &status, WNOHANG) == p.pid) {
      p.pid = -1;
      p.alive = false;
      fail_node(id, "exited unexpectedly");
    }
    return false;
  }
  if (reply->rfind("OK", 0) != 0) return false;
  const auto kv = ctl::parse_kv(reply->substr(2));
  auto snap = ctl::parse_snapshot(kv);
  // A missing or malformed node field counts as no answer: the next round
  // asks again.
  if (!snap || snap->id != id) return false;
  const std::uint64_t changes = parse_u64(kv, "cfgchanges");
  p.incq = parse_u64(kv, "incq");
  p.shmq = parse_u64(kv, "shmq");
  p.sent = parse_u64(kv, "sent");
  p.recv = parse_u64(kv, "recv");
  p.syscalls = parse_u64(kv, "syscalls");
  p.batched = parse_u64(kv, "batched");

  const reconf::ConfigValue& cfg = snap->config;
  const std::uint64_t new_digest =
      TraceRecorder::digest(cfg.is_set() ? cfg.ids() : IdSet{});
  if (p.sampled() && changes > p.cfgchanges) {
    // The daemon reconfigured since the last sample. The count is exact
    // (the daemon counts every change handler fire); the *values* are
    // sampled, so each of the missed changes is attributed the currently
    // believed configuration at the sample instant.
    const std::uint64_t delta = changes - p.cfgchanges;
    for (std::uint64_t i = 0; i < delta; ++i) {
      registry_.config_history().record(
          now(), id,
          cfg.is_proper() ? cfg : reconf::ConfigValue::bottom());
    }
    trace_.record(TraceKind::kConfigChange, id, new_digest, delta);
  } else if (!p.sampled() || cfg != p.snap.config) {
    trace_.record(TraceKind::kNodeSample, id, new_digest,
                   (snap->no_reco ? 2u : 0u) | (snap->participant ? 1u : 0u));
  }
  p.cfgchanges = changes;
  p.snap = std::move(*snap);
  return true;
}

bool ProcessRunner::sample() {
  bool all = true;
  for (auto& [id, p] : procs_) {
    if (!p.running()) continue;
    all = sample_node(id, p) && all;
    if (failed()) return false;
  }
  return all;
}

void ProcessRunner::harvest_ops_from(NodeId id, Proc& p) {
  // Paged pull: every reply carries ops starting at our cursor plus the
  // daemon's total. The cursor only moves past fully validated ops, so a
  // truncated or garbled reply is refetched on the next harvest instead of
  // silently dropping completed increments from the order check.
  for (;;) {
    auto reply = client_.request(
        p.ctl_port, "OPS " + std::to_string(p.ops_harvested), 300, 2);
    if (!reply || reply->rfind("OK", 0) != 0) return;
    std::istringstream is(reply->substr(2));
    std::string tok;
    std::size_t total = 0;
    bool progressed = false;
    while (is >> tok) {
      if (tok.rfind("total=", 0) == 0) {
        total = std::strtoull(tok.substr(6).c_str(), nullptr, 10);
        continue;
      }
      if (tok.rfind("op=", 0) != 0) continue;
      const std::string body = tok.substr(3);
      const auto c1 = body.find(':');
      const auto c2 = body.find(':', c1 + 1);
      if (c1 == std::string::npos || c2 == std::string::npos) return;
      const std::uint64_t started =
          std::strtoull(body.substr(0, c1).c_str(), nullptr, 10);
      const std::uint64_t finished =
          std::strtoull(body.substr(c1 + 1, c2 - c1 - 1).c_str(), nullptr,
                        10);
      auto blob = ctl::hex_decode(body.substr(c2 + 1));
      if (!blob) return;
      wire::Reader r(*blob);
      auto c = counter::Counter::decode(r);
      if (!c || !r.ok()) return;
      registry_.counter_order().record(started, finished, *c);
      if (finished >= started) op_latency_.record(finished - started);
      trace_.record(TraceKind::kIncrementDone, id, 1, c->seqn);
      ++p.ops_harvested;
      progressed = true;
    }
    if (p.ops_harvested >= total || !progressed) return;
  }
}

void ProcessRunner::harvest() {
  for (auto& [id, p] : procs_) {
    if (p.running()) harvest_ops_from(id, p);
  }
}

// -- Control helpers ---------------------------------------------------------

void ProcessRunner::control_or_fail(NodeId id, const std::string& cmd) {
  auto reply = client_.request(procs_.at(id).ctl_port, cmd);
  if (!reply) {
    fail_node(id, "unreachable for '" + cmd + "'");
  } else if (reply->rfind("OK", 0) != 0) {
    fail_node(id, "rejected '" + cmd + "': " + *reply);
  }
}

void ProcessRunner::send_blocked_sets(const IdSet& touched) {
  for (NodeId id : touched) {
    auto it = procs_.find(id);
    if (it == procs_.end() || !it->second.running()) continue;
    control_or_fail(id, "BLOCK " + ctl::format_ids(blocked_[id]));
  }
}

IdSet ProcessRunner::queue_and_drain(const IdSet& targets,
                                     const std::string& cmd,
                                     std::uint64_t Proc::*queue,
                                     SimTime budget) {
  IdSet queued;
  for (NodeId id : targets) {
    auto it = procs_.find(id);
    if (it == procs_.end() || !it->second.running()) continue;
    control_or_fail(id, cmd);
    if (failed()) return queued;
    queued.insert(id);
  }
  // A queue still holding ops at the deadline is not a scenario failure
  // (quorum operations legally abort and retry through reconfigurations,
  // exactly like the simulator's bounded-attempt workloads); it only means
  // fewer ops feed the invariant checks.
  await(await_budget(budget), [&] {
    for (NodeId id : queued) {
      const Proc& p = procs_.at(id);
      if (p.running() && (!p.sampled() || p.*queue != 0)) return false;
    }
    return true;
  });
  return queued;
}

// -- Fabric primitives -------------------------------------------------------

void ProcessRunner::cut(const IdSet& a, const IdSet& b) {
  for (NodeId x : a) {
    for (NodeId y : b) {
      if (x == y) continue;
      blocked_[x].insert(y);
      blocked_[y].insert(x);
    }
  }
  IdSet touched = a;
  for (NodeId y : b) touched.insert(y);
  send_blocked_sets(touched);
}

void ProcessRunner::heal() {
  IdSet touched;
  for (auto& [id, set] : blocked_) {
    if (!set.empty()) touched.insert(id);
    set = IdSet{};
  }
  send_blocked_sets(touched);
}

void ProcessRunner::inject(NodeId id, const StateFault& f) {
  std::string cmd;
  switch (f.kind) {
    case StateFault::Kind::kRecsa:
      cmd = "CORRUPT recsa " + ctl::format_ids(f.ids);
      break;
    case StateFault::Kind::kFd:
      cmd = "CORRUPT fd";
      break;
    case StateFault::Kind::kConfig:
      cmd = "CONF " + ctl::format_ids(f.ids);
      break;
    case StateFault::Kind::kCounter:
      cmd = "PLANT_CTR " + std::to_string(f.n);
      break;
    case StateFault::Kind::kRecmaFlags:
      cmd = std::string("RECMA ") + ((f.n & 1) ? "1 " : "0 ") +
            ((f.n & 2) ? "1 " : "0 ") + ctl::format_ids(f.ids);
      break;
  }
  control_or_fail(id, cmd);
}

void ProcessRunner::garbage(std::uint64_t per_node) {
  // OS-level channel garbage: raw junk datagrams straight at every node's
  // data socket — no cooperation from the daemon at all.
  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (raw < 0) return;
  Rng rng(opt_.seed ^ 0x6A12BA6EULL);
  for (const auto& [id, p] : procs_) {
    if (!p.alive) continue;
    sockaddr_in to{};
    to.sin_family = AF_INET;
    to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    to.sin_port = htons(p.data_port);
    for (std::uint64_t i = 0; i < per_node; ++i) {
      std::uint8_t junk[64];
      for (std::uint8_t& b : junk) {
        b = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
      }
      (void)::sendto(raw, junk, sizeof(junk), 0,
                     reinterpret_cast<sockaddr*>(&to), sizeof(to));
    }
  }
  ::close(raw);
}

void ProcessRunner::increments(const IdSet& targets, std::uint64_t per_node) {
  // Generous drain budget: increments are quorum operations that legally
  // abort and retry through reconfigurations.
  queue_and_drain(targets, "INC " + std::to_string(per_node), &Proc::incq,
                  120 * kSec * (per_node == 0 ? 1 : per_node));
}

void ProcessRunner::shmem(const IdSet& targets, bool write,
                          const std::string& reg, std::uint64_t salt) {
  const std::string cmd =
      write ? "SHMEMW " + reg + " " + std::to_string(salt) : "SHMEMR " + reg;
  const IdSet queued = queue_and_drain(targets, cmd, &Proc::shmq, 160 * kSec);
  for (NodeId id : queued) {
    const Proc& p = procs_.at(id);
    trace_.record(TraceKind::kShmemOpDone, id,
                  (p.sampled() && p.shmq == 0) ? 1 : 0, write ? 1 : 0);
  }
}

void ProcessRunner::run_for(SimTime d) {
  const SimTime deadline = now() + scaled(d);
  while (now() < deadline && !failed()) {
    sample();
    step_sleep();
  }
}

void ProcessRunner::refresh() {
  // A transiently unresponsive daemon (busy lap, loopback drop) gets
  // retried: one missed node here would turn into a spurious closure
  // violation at its next successful sample.
  for (int lap = 0; lap < 20 && !sample() && !failed(); ++lap) step_sleep();
}

bool ProcessRunner::bootstrap() {
  SSR_ASSERT(!bootstrapped_, "bootstrap() spawns the cohort once");
  bootstrapped_ = true;
  ran_ = true;  // the destructor's keep-the-scratch-dir logic keys on this

  // Spawn everyone against a placeholder map (all ports 0), then publish
  // the real ports in one atomic rewrite. The daemons poll the map until
  // their view has no port-0 entries left.
  for (std::size_t i = 1; i <= spec().initial_nodes; ++i) {
    procs_[static_cast<NodeId>(i)];  // placeholder so the map lists it
  }
  {
    std::ofstream out(dir_ + "/peers.txt");
    for (const auto& [id, p] : procs_) {
      (void)p;
      out << id << " 127.0.0.1 0\n";
    }
  }
  for (auto& [id, p] : procs_) {
    (void)p;
    launch(id, dir_ + "/peers.txt");
    trace_.record(TraceKind::kNodeAdded, id);
  }
  for (auto& [id, p] : procs_) {
    (void)p;
    if (!collect_ports(id)) {
      fail_node(id, "failed to start");
      return false;
    }
  }
  write_cohort_peer_map();
  return true;
}

void ProcessRunner::fill_result(ScenarioResult& r) {
  r.sim_time = now();
  r.op_latency = op_latency_;
  for (const auto& [id, p] : procs_) {
    (void)id;
    r.packets_sent += p.sent;
    r.packets_delivered += p.recv;
    r.net_syscalls += p.syscalls;
    r.net_batched += p.batched;
  }
}

}  // namespace ssr::scenario
