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
#include <ranges>
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

/// The latest snapshots of a fleet's alive daemons, for the node::
/// predicates. A daemon that has not answered yet contributes a default
/// snapshot, which satisfies none of them.
template <class Fleet>
auto alive_snapshots(const Fleet& f) {
  const auto is_alive = [](const auto& entry) { return entry.second.alive; };
  const auto snapshot = [](const auto& entry) -> const node::NodeSnapshot& {
    return entry.second.snap;
  };
  return f.procs | std::views::filter(is_alive) |
         std::views::transform(snapshot);
}

}  // namespace

ProcessRunner::ProcessRunner(ScenarioSpec spec, ProcessBackendOptions opt)
    : spec_(std::move(spec)),
      opt_(std::move(opt)),
      keyed_(spec_.initial_map_shards(), spec_.shards) {
  SSR_ASSERT(!opt_.node_binary.empty(),
             "ProcessBackendOptions.node_binary is required");
  SSR_ASSERT(spec_.shards >= 1, "a scenario runs at least one fleet");
  epoch_usec_ = steady_usec();
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
  fleets_.reserve(spec_.shards);
  for (std::uint32_t s = 0; s < spec_.shards; ++s) {
    Fleet& f = fleets_.emplace_back();
    f.name = spec_.name;
    f.dir = dir_;
    f.seed = spec_.fleet_seed(opt_.seed, s);
    if (spec_.shards > 1) {
      f.name += "/shard" + std::to_string(s);
      f.dir += "/shard" + std::to_string(s);
      f.tag = s + 1;
    }
    std::filesystem::create_directories(f.dir);
    f.trace.set_clock([this] { return now(); });
    f.registry = std::make_unique<InvariantRegistry>(
        InvariantRegistry::Clock([this] { return now(); }));
  }
}

ProcessRunner::~ProcessRunner() {
  for (Fleet& f : fleets_) {
    for (auto& [id, p] : f.procs) {
      if (p.pid > 0) {
        ::kill(p.pid, SIGKILL);  // kills stopped children too
        int status = 0;
        ::waitpid(p.pid, &status, 0);
        p.pid = -1;
      }
    }
  }
  // Keep the directory (logs, peer maps) whenever something went wrong so
  // CI can upload it as an artifact.
  if (made_dir_ && !opt_.keep_dir && ran_ && !failed_) {
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
  return s < opt_.min_await ? opt_.min_await : s;
}

void ProcessRunner::step_sleep() const {
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
}

IdSet ProcessRunner::alive(const Fleet& f) {
  IdSet out;
  for (const auto& [id, p] : f.procs) {
    if (p.alive) out.insert(id);
  }
  return out;
}

IdSet ProcessRunner::targets_or_alive(const Fleet& f, const Action& a) const {
  return a.targets.empty() ? alive(f) : a.targets;
}

bool ProcessRunner::stalled(const Fleet& f) {
  bool any = false;
  for (const auto& [id, p] : f.procs) {
    (void)id;
    if (!p.alive) continue;
    if (!p.paused) return false;
    any = true;
  }
  return any;
}

bool ProcessRunner::converged_sampled() const {
  return std::all_of(fleets_.begin(), fleets_.end(), [this](const Fleet& f) {
    return skipped(f) || node::common_config(alive_snapshots(f)).has_value();
  });
}

void ProcessRunner::fail_node(const Fleet& f, NodeId id,
                              const std::string& what) {
  fail((fleets_.size() > 1 ? f.name + ": " : std::string()) + "node " +
       std::to_string(id) + " " + what);
}

// -- Process management ------------------------------------------------------

void ProcessRunner::write_cohort_peer_map(const Fleet& f) {
  // Atomic rewrite (tmp + rename): daemons re-read this file while any of
  // their entries still shows port 0.
  const std::string path = f.dir + "/peers.txt";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    for (const auto& [id, p] : f.procs) {
      out << id << " 127.0.0.1 " << p.data_port << "\n";
    }
  }
  std::rename(tmp.c_str(), path.c_str());
}

void ProcessRunner::spawn(Fleet& f, NodeId id, const std::string& peers_path) {
  Proc& p = f.procs[id];
  const std::string port_file = f.dir + "/port." + std::to_string(id);
  std::remove(port_file.c_str());
  const std::string log_file =
      f.dir + "/node-" + std::to_string(id) + ".log";

  std::vector<std::string> args = {
      opt_.node_binary,
      "--id", std::to_string(id),
      "--peers", peers_path,
      "--port-file", port_file,
      "--seconds", std::to_string(opt_.node_seconds),
      "--tick-us", std::to_string(opt_.tick_us),
      "--seed",
      std::to_string((f.seed + 0x9E3779B97F4A7C15ULL) * 1000003ULL + id),
  };
  if (f.tag != 0) {
    args.push_back("--shard");
    args.push_back(std::to_string(f.tag));
  }
  if (spec_.enable_vs) args.push_back("--vs");
  if (spec_.aggressive_policy) args.push_back("--aggressive");
  if (spec_.adopt_joiners) args.push_back("--adopt-joiners");
  if (spec_.exhaust_bound != 0) {
    args.push_back("--exhaust-bound");
    args.push_back(std::to_string(spec_.exhaust_bound));
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

bool ProcessRunner::collect_ports(Fleet& f, NodeId id) {
  Proc& p = f.procs[id];
  const std::string port_file = f.dir + "/port." + std::to_string(id);
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

NodeId ProcessRunner::spawn_fresh_node(Fleet& f) {
  const NodeId id = f.next_id++;
  // A late joiner gets its own map: every current cohort member with its
  // real port, plus itself at port 0 (bind-and-discover). Existing nodes
  // learn the newcomer's address from its first well-formed datagram.
  std::string peers_path = f.dir + "/peers." + std::to_string(id) + ".txt";
  {
    std::ofstream out(peers_path);
    for (const auto& [other, p] : f.procs) {
      if (p.alive) out << other << " 127.0.0.1 " << p.data_port << "\n";
    }
    out << id << " 127.0.0.1 0\n";
  }
  spawn(f, id, peers_path);
  f.trace.record(TraceKind::kNodeAdded, id);
  if (!collect_ports(f, id)) fail_node(f, id, "failed to start");
  return id;
}

void ProcessRunner::kill_node(Fleet& f, NodeId id) {
  auto it = f.procs.find(id);
  if (it == f.procs.end() || !it->second.alive) return;
  Proc& p = it->second;
  // Completed operations die with the process; pull them first so the
  // counter-order record stays complete.
  if (!p.paused) harvest_ops_from(f, id, p);
  ::kill(p.pid, SIGKILL);  // kills stopped processes too
  int status = 0;
  ::waitpid(p.pid, &status, 0);
  p.pid = -1;
  p.alive = false;
  f.trace.record(TraceKind::kNodeCrashed, id);
}

// -- Sampling ----------------------------------------------------------------

bool ProcessRunner::sample_node(Fleet& f, NodeId id, Proc& p) {
  auto reply = client_.request(p.ctl_port, "STATUS", 250, 2);
  if (!reply) {
    // Unreachable: either mid-GC busy (retry next round) or dead. Only an
    // observed exit is fatal — a wedged-alive node surfaces as an await
    // timeout instead.
    int status = 0;
    if (p.pid > 0 && ::waitpid(p.pid, &status, WNOHANG) == p.pid) {
      p.pid = -1;
      p.alive = false;
      fail_node(f, id, "exited unexpectedly");
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
      f.registry->config_history().record(
          now(), id,
          cfg.is_proper() ? cfg : reconf::ConfigValue::bottom());
    }
    f.trace.record(TraceKind::kConfigChange, id, new_digest, delta);
  } else if (!p.sampled() || cfg != p.snap.config) {
    f.trace.record(TraceKind::kNodeSample, id, new_digest,
                   (snap->no_reco ? 2u : 0u) | (snap->participant ? 1u : 0u));
  }
  p.cfgchanges = changes;
  p.snap = std::move(*snap);
  return true;
}

bool ProcessRunner::sample() {
  bool all = true;
  for (Fleet& f : fleets_) {
    for (auto& [id, p] : f.procs) {
      if (!p.alive || p.paused) continue;
      all = sample_node(f, id, p) && all;
      if (failed_) return false;
    }
  }
  return all;
}

void ProcessRunner::harvest_ops_from(Fleet& f, NodeId id, Proc& p) {
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
      f.registry->counter_order().record(started, finished, *c);
      if (finished >= started) f.op_latency.record(finished - started);
      f.trace.record(TraceKind::kIncrementDone, id, 1, c->seqn);
      ++p.ops_harvested;
      progressed = true;
    }
    if (p.ops_harvested >= total || !progressed) return;
  }
}

void ProcessRunner::harvest_ops() {
  for (Fleet& f : fleets_) {
    for (auto& [id, p] : f.procs) {
      if (p.alive && !p.paused) harvest_ops_from(f, id, p);
    }
  }
}

// -- Control helpers ---------------------------------------------------------

void ProcessRunner::control_or_fail(Fleet& f, const Action& a, NodeId id,
                                    const std::string& cmd) {
  auto& p = f.procs.at(id);
  auto reply = client_.request(p.ctl_port, cmd);
  if (!reply) {
    fail(a, "node " + std::to_string(id) + " unreachable for '" + cmd + "'");
    return;
  }
  if (reply->rfind("OK", 0) != 0) {
    fail(a, "node " + std::to_string(id) + " rejected '" + cmd +
            "': " + *reply);
  }
}

void ProcessRunner::send_blocked_sets(Fleet& f, const IdSet& touched) {
  Action a;
  a.kind = ActionKind::kSplitNetwork;
  for (NodeId id : touched) {
    auto it = f.procs.find(id);
    if (it == f.procs.end() || !it->second.alive || it->second.paused) {
      continue;
    }
    control_or_fail(f, a, id, "BLOCK " + ctl::format_ids(f.blocked[id]));
  }
}

void ProcessRunner::do_garbage(const Fleet& f, std::uint64_t per_node) {
  // OS-level channel garbage: raw junk datagrams straight at every node's
  // data socket — no cooperation from the daemon at all.
  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (raw < 0) return;
  Rng rng(f.seed ^ 0x6A12BA6EULL);
  for (const auto& [id, p] : f.procs) {
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

// -- Run loop ----------------------------------------------------------------

bool ProcessRunner::bootstrap() {
  SSR_ASSERT(!bootstrapped_, "bootstrap() spawns the cohort once");
  bootstrapped_ = true;
  ran_ = true;  // the destructor's keep-the-scratch-dir logic keys on this

  // Every fleet's cohort is spawned up front; from here on the fleets all
  // run concurrently in real time and one loop samples them.
  for (Fleet& f : fleets_) {
    // Spawn everyone against a placeholder map (all ports 0), then
    // publish the real ports in one atomic rewrite. The daemons poll the
    // map until their view has no port-0 entries left.
    for (std::size_t i = 0; i < spec_.initial_nodes; ++i) {
      f.procs[f.next_id++];  // placeholder so the map lists the cohort
    }
    {
      std::ofstream out(f.dir + "/peers.txt");
      for (const auto& [id, p] : f.procs) {
        (void)p;
        out << id << " 127.0.0.1 0\n";
      }
    }
    for (auto& [id, p] : f.procs) {
      (void)p;
      spawn(f, id, f.dir + "/peers.txt");
      f.trace.record(TraceKind::kNodeAdded, id);
    }
    for (auto& [id, p] : f.procs) {
      (void)p;
      if (!collect_ports(f, id)) {
        fail_node(f, id, "failed to start");
        break;
      }
    }
    if (failed_) break;
    write_cohort_peer_map(f);
  }
  return !failed_;
}

void ProcessRunner::step(const Action& a) {
  if (failed_) return;
  for (Fleet& f : fleets_) {
    f.trace.record(TraceKind::kActionApplied, kNoNode,
                   static_cast<std::uint64_t>(a.kind), a.digest());
  }
  apply(a);
}

ScenarioResult ProcessRunner::run() {
  SSR_ASSERT(!ran_, "a ProcessRunner runs its spec once");
  ran_ = true;

  bootstrap();
  for (const Phase& phase : spec_.phases) {
    if (failed_) break;
    for (Fleet& f : fleets_) {
      f.trace.record(TraceKind::kPhaseStart, kNoNode,
                     TraceRecorder::digest(phase.name));
    }
    for (const Action& a : phase.actions) step(a);
  }
  return finish();
}

ScenarioResult ProcessRunner::fleet_result(const Fleet& f) const {
  ScenarioResult r;
  r.name = f.name;
  r.seed = opt_.seed;
  r.violations = f.registry->check_all();
  r.ok = r.violations.empty();
  r.trace_hash = f.trace.hash();
  r.trace_events = f.trace.size();
  r.sim_time = now();
  r.ops_completed = f.op_latency.count();
  r.op_p50_us = f.op_latency.percentile(50);
  r.op_p99_us = f.op_latency.percentile(99);
  r.op_latency = f.op_latency;
  for (const auto& [id, p] : f.procs) {
    (void)id;
    r.packets_sent += p.sent;
    r.packets_delivered += p.recv;
    r.net_syscalls += p.syscalls;
    r.net_batched += p.batched;
  }
  return r;
}

ScenarioResult ProcessRunner::finish() {
  harvest_ops();

  ScenarioResult r;
  if (fleets_.size() == 1) {
    r = fleet_result(fleets_.front());
  } else {
    for (const Fleet& f : fleets_) r.fleets.push_back(fleet_result(f));
    r.name = spec_.name;
    r.seed = opt_.seed;
    r.fold_fleets();
  }
  r.failure = failure_;
  r.ok = !failed_ && r.violations.empty();
  keyed_.report(r);
  // Any failure — missed await OR invariant violation — must keep the
  // scratch directory: the destructor keys on failed_.
  if (!r.ok) failed_ = true;
  return r;
}

void ProcessRunner::apply(const Action& a) {
  // A queued map growth lands lazily inside the next keyed workload; any
  // other action materializes it up front.
  if (a.kind != ActionKind::kKeyedIncrements &&
      a.kind != ActionKind::kGrowMap) {
    keyed_.adopt_queued_growth();
  }
  SSR_ASSERT(a.shard < fleets_.size(), "action aimed past the last fleet");
  Fleet& f = fleets_[a.shard];
  InvariantRegistry& registry = *f.registry;
  switch (a.kind) {
    case ActionKind::kAddNodes: {
      registry.unmark_stable();
      for (std::uint64_t i = 0; i < a.n && !failed_; ++i) spawn_fresh_node(f);
      return;
    }
    case ActionKind::kCrash: {
      registry.unmark_stable();
      for (NodeId id : a.targets) kill_node(f, id);
      return;
    }
    case ActionKind::kReboot: {
      registry.unmark_stable();
      // Identifiers are never reused (paper, Section 2): a reboot is a
      // crash-stop plus a fresh processor taking the slot.
      for (NodeId id : a.targets) {
        kill_node(f, id);
        if (!failed_) spawn_fresh_node(f);
      }
      return;
    }
    case ActionKind::kSplitNetwork: {
      registry.unmark_stable();
      for (NodeId x : a.targets) {
        for (NodeId y : a.group_b) {
          if (x == y) continue;
          f.blocked[x].insert(y);
          f.blocked[y].insert(x);
        }
      }
      IdSet touched = a.targets;
      for (NodeId y : a.group_b) touched.insert(y);
      send_blocked_sets(f, touched);
      return;
    }
    case ActionKind::kHealNetwork: {
      IdSet touched;
      for (auto& [id, set] : f.blocked) {
        if (!set.empty()) touched.insert(id);
        set = IdSet{};
      }
      send_blocked_sets(f, touched);
      return;
    }
    case ActionKind::kCorruptRecsa:
      registry.unmark_stable();
      for (NodeId id : targets_or_alive(f, a)) {
        control_or_fail(f, a, id, "CORRUPT recsa");
      }
      return;
    case ActionKind::kCorruptFd:
      registry.unmark_stable();
      for (NodeId id : targets_or_alive(f, a)) {
        control_or_fail(f, a, id, "CORRUPT fd");
      }
      return;
    case ActionKind::kSplitConfigState: {
      registry.unmark_stable();
      // Mirrors harness::FaultInjector::split_config: the first half of the
      // alive set (in id order) believes `targets`, the rest believe
      // `group_b`.
      const IdSet all = alive(f);
      std::size_t i = 0;
      for (NodeId id : all) {
        const bool first_half = i < all.size() / 2;
        const IdSet& mine = first_half ? a.targets : a.group_b;
        control_or_fail(f, a, id, "CONF " + ctl::format_ids(mine));
        ++i;
      }
      return;
    }
    case ActionKind::kGarbageChannels:
      registry.unmark_stable();
      do_garbage(f, a.n);
      return;
    case ActionKind::kPlantExhaustedCounter:
      registry.unmark_stable();
      for (NodeId id : a.targets) {
        control_or_fail(f, a, id, "PLANT_CTR " + std::to_string(a.n));
      }
      return;
    case ActionKind::kPlantRecmaFlags:
      registry.unmark_stable();
      for (NodeId id : a.targets) {
        control_or_fail(f, a, id,
                        std::string("RECMA ") + ((a.n & 1) ? "1" : "0") + " " +
                            ((a.n & 2) ? "1" : "0"));
      }
      return;
    case ActionKind::kIncrementBurst:
      do_increment_burst(f, a);
      return;
    case ActionKind::kShmemWrite:
      do_shmem(f, a, /*write=*/true);
      return;
    case ActionKind::kShmemRead:
      do_shmem(f, a, /*write=*/false);
      return;
    case ActionKind::kRunFor: {
      const SimTime deadline = now() + scaled(a.duration);
      while (now() < deadline && !failed_) {
        sample();
        step_sleep();
      }
      return;
    }
    case ActionKind::kAwaitConverged:
    case ActionKind::kAwaitVsStable:
    case ActionKind::kAwaitParticipants:
    case ActionKind::kAwaitConfigEqualsAlive:
      do_await(f, a);
      return;
    case ActionKind::kMarkStable: {
      // Take a fresh sample of *every* node first, so changes that happened
      // before the window opened are not attributed into it. A transiently
      // unresponsive daemon (busy lap, loopback drop) gets retried — one
      // missed node here would turn into a spurious closure violation at
      // its next successful sample.
      for (int lap = 0; lap < 20 && !sample() && !failed_; ++lap) {
        step_sleep();
      }
      for (Fleet& g : fleets_) {
        if (skipped(g)) continue;
        g.registry->mark_stable();
        g.trace.record(TraceKind::kStableMarked, kNoNode);
      }
      return;
    }
    case ActionKind::kCrashAll: {
      registry.unmark_stable();
      for (NodeId id : alive(f)) kill_node(f, id);
      return;
    }
    case ActionKind::kAwaitQuiescent: {
      if (!alive(f).empty()) {
        registry.report("silence", false,
                        "await_quiescent requires every node crashed first");
        return;
      }
      // Process-level quiescence is an OS triviality (the processes are
      // gone); the event-level drain check is a simulator property. Record
      // the teardown point so traces stay comparable.
      f.trace.record(TraceKind::kQuiescent, kNoNode, 1);
      return;
    }
    case ActionKind::kPauseNodes: {
      registry.unmark_stable();
      for (NodeId id : a.targets) {
        auto it = f.procs.find(id);
        if (it == f.procs.end() || !it->second.alive) continue;
        // Harvest first: a stopped process cannot answer OPS, and it may
        // be SIGKILLed before ever resuming.
        harvest_ops_from(f, id, it->second);
        ::kill(it->second.pid, SIGSTOP);
        it->second.paused = true;
        f.trace.record(TraceKind::kNodePaused, id);
      }
      return;
    }
    case ActionKind::kResumeNodes: {
      for (NodeId id : a.targets) {
        auto it = f.procs.find(id);
        if (it == f.procs.end() || !it->second.alive || !it->second.paused) {
          continue;
        }
        ::kill(it->second.pid, SIGCONT);
        it->second.paused = false;
        f.trace.record(TraceKind::kNodeResumed, id);
        // Peer-filter updates (splits/heals) that happened while the node
        // was stopped were never delivered; reinstall the current set.
        control_or_fail(f, a, id, "BLOCK " + ctl::format_ids(f.blocked[id]));
        // And sample immediately, so state from before the pause cannot be
        // attributed into a closure window opened later.
        sample_node(f, id, it->second);
      }
      return;
    }
    case ActionKind::kKeyedIncrements:
      do_keyed_increments(a);
      return;
    case ActionKind::kGrowMap:
      if (!keyed_.queue_growth()) fail(a, "the map already spans every fleet");
      return;
  }
}

void ProcessRunner::do_await(Fleet& f, const Action& a) {
  if (a.kind == ActionKind::kAwaitVsStable && !spec_.enable_vs) {
    fail(a, "await_vs_stable needs enable_vs in the spec");
    return;
  }
  // await_converged spans every fleet; the other awaits look at fleet
  // a.shard.
  const bool every_fleet = a.kind == ActionKind::kAwaitConverged;
  const auto met = [&] {
    return every_fleet ? converged_sampled()
                       : await_met(a, alive_snapshots(f));
  };
  if (!await(await_budget(a.duration), met)) {
    fail(a, await_failure(a.kind));
    return;
  }
  if (a.kind == ActionKind::kAwaitVsStable) {
    f.trace.record(TraceKind::kVsStable, kNoNode);
  }
  if (!every_fleet) return;
  for (Fleet& g : fleets_) {
    if (skipped(g)) continue;
    g.trace.record(
        TraceKind::kConverged, kNoNode,
        TraceRecorder::digest(*node::common_config(alive_snapshots(g))));
  }
}

void ProcessRunner::do_increment_burst(Fleet& f, const Action& a) {
  IdSet queued;
  for (NodeId id : targets_or_alive(f, a)) {
    auto it = f.procs.find(id);
    if (it == f.procs.end() || !it->second.alive || it->second.paused) {
      continue;
    }
    control_or_fail(f, a, id, "INC " + std::to_string(a.n));
    if (failed_) return;
    queued.insert(id);
  }
  // Generous drain budget: increments are quorum operations that legally
  // abort and retry through reconfigurations. Remaining queue depth at the
  // deadline is not a scenario failure — exactly like the simulator's
  // bounded-attempt bursts — it only means fewer ops feed the order check.
  const SimTime budget = await_budget(120 * kSec * (a.n == 0 ? 1 : a.n));
  await(budget, [&] {
    for (NodeId id : queued) {
      const Proc& p = f.procs.at(id);
      if (p.alive && !p.paused && (!p.sampled() || p.incq != 0)) return false;
    }
    return true;
  });
  harvest_ops();
}

void ProcessRunner::do_keyed_increments(const Action& a) {
  KeyedWorkload::Fleets fleets;
  fleets.membership = [this](std::uint32_t s) {
    const Fleet& f = fleets_[s];
    return node::common_config(alive_snapshots(f)).value_or(alive(f));
  };
  // One routed attempt is one single-op burst on the target. A paused or
  // crashed target is skipped by the burst, so its await is instant and
  // the fleet's harvested-op count stays put: the router rotates on. An op
  // that straggles past the burst's drain budget gets credited to a later
  // attempt on the same fleet; both ops did complete there, which is what
  // the isolation ledger measures.
  fleets.attempt = [this](std::uint32_t s, NodeId target) {
    Fleet& f = fleets_[s];
    const std::uint64_t before = f.op_latency.count();
    do_increment_burst(f, Action::increment_burst(1, {target}));
    return f.op_latency.count() > before;
  };
  fleets.stalled = [this](std::uint32_t s) { return stalled(fleets_[s]); };
  fleets.failed = [this] { return failed_; };
  keyed_.run(a, fleets);
}

void ProcessRunner::do_shmem(Fleet& f, const Action& a, bool write) {
  std::string cmd;
  if (write) {
    cmd = "SHMEMW " + a.reg + " " + std::to_string(a.n);
  } else {
    cmd = "SHMEMR " + a.reg;
  }
  IdSet queued;
  for (NodeId id : targets_or_alive(f, a)) {
    auto it = f.procs.find(id);
    if (it == f.procs.end() || !it->second.alive || it->second.paused) {
      continue;
    }
    control_or_fail(f, a, id, cmd);
    if (failed_) return;
    queued.insert(id);
  }
  await(await_budget(160 * kSec), [&] {
    for (NodeId id : queued) {
      const Proc& p = f.procs.at(id);
      if (p.alive && !p.paused && (!p.sampled() || p.shmq != 0)) return false;
    }
    return true;
  });
  for (NodeId id : queued) {
    const Proc& p = f.procs.at(id);
    f.trace.record(TraceKind::kShmemOpDone, id,
                   (p.sampled() && p.shmq == 0) ? 1 : 0, write ? 1 : 0);
  }
}

}  // namespace ssr::scenario
