// fleet-3: three real ssr_node daemons on localhost UDP, driven through
// scenario::ProcessRunner. A run sets several fleets up one after another;
// on each, every daemon's client runs a fixed number of sequential counter
// increments (a closed loop per daemon, three concurrently). Latencies are
// the daemons' raw begin/finish stamps, read back over the control socket;
// the registry checks counter order and closure.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "scenario/control.hpp"
#include "scenario/process_runner.hpp"
#include "util/wallclock.hpp"

namespace ssr::bench {
namespace {

constexpr std::size_t kDaemons = 3;
constexpr std::size_t kFleets = 5;
constexpr SimTime kConvergeBudget = 60 * kSec;
/// Increments per daemon for each --seconds, over all fleets (about what
/// one sequential client completes in a wall second on the test host), and
/// in a smoke run (a ~200-op fleet).
constexpr double kOpsPerSecond = 45.0;
constexpr std::uint64_t kSmokeOps = 67;

struct Counters {
  std::uint64_t sent = 0, recv = 0, syscalls = 0, batched = 0;
};

struct Op {
  std::uint64_t started = 0;
  std::uint64_t finished = 0;
};

/// The bench's own control client, for what ProcessRunner does not expose:
/// traffic counters and raw op stamps.
///
/// A daemon re-sends its cached reply when a request repeats the previous
/// request's id, and this client numbers from 1 like the runner's. The
/// calls are ordered so that the first request either client sends after
/// the other's has a higher id than the other's last one: the runner has
/// sampled every daemon at least twice (convergence, then mark_stable)
/// before this client's three STATUS requests, and sends the increments
/// and samples many more times before this client's closing STATUS round.
class Daemons {
 public:
  explicit Daemons(const std::string& work_dir) {
    for (NodeId id = 1; id <= kDaemons; ++id) {
      std::ifstream in(work_dir + "/port." + std::to_string(id));
      unsigned data = 0, ctl = 0;
      in >> data >> ctl;
      ports_.push_back(static_cast<std::uint16_t>(ctl));
    }
  }

  Counters status() {
    Counters c;
    for (std::uint16_t p : ports_) {
      auto reply = client_.request(p, "STATUS");
      if (!reply || reply->rfind("OK", 0) != 0) continue;
      const auto kv = scenario::ctl::parse_kv(reply->substr(2));
      auto get = [&kv](const char* k) -> std::uint64_t {
        auto it = kv.find(k);
        return it == kv.end()
                   ? 0
                   : std::strtoull(it->second.c_str(), nullptr, 10);
      };
      c.sent += get("sent");
      c.recv += get("recv");
      c.syscalls += get("syscalls");
      c.batched += get("batched");
    }
    return c;
  }

  /// Every completed increment's begin/finish stamps (steady_usec), one
  /// list per daemon.
  std::vector<std::vector<Op>> ops() {
    std::vector<std::vector<Op>> all;
    for (std::uint16_t p : ports_) {
      std::vector<Op>& out = all.emplace_back();
      std::size_t have = 0;
      for (;;) {
        auto reply = client_.request(p, "OPS " + std::to_string(have));
        if (!reply || reply->rfind("OK", 0) != 0) break;
        std::istringstream is(reply->substr(2));
        std::string tok;
        std::size_t total = 0;
        std::size_t got = 0;
        while (is >> tok) {
          if (tok.rfind("total=", 0) == 0) {
            total = std::strtoull(tok.c_str() + 6, nullptr, 10);
          } else if (tok.rfind("op=", 0) == 0) {
            Op op;
            char* end = nullptr;
            op.started = std::strtoull(tok.c_str() + 3, &end, 10);
            if (*end == ':') op.finished = std::strtoull(end + 1, nullptr, 10);
            out.push_back(op);
            ++got;
          }
        }
        have += got;
        if (got == 0 || have >= total) break;
      }
    }
    return all;
  }

 private:
  scenario::ctl::ControlClient client_;
  std::vector<std::uint16_t> ports_;
};

scenario::ScenarioSpec fleet_spec() {
  scenario::ScenarioSpec s;
  s.name = "fleet-3";
  s.initial_nodes = kDaemons;
  return s;
}

struct FleetSetUp {
  std::unique_ptr<scenario::ProcessRunner> runner;
  double wall_s = 0;
  double converge_ms = 0;
};

/// bootstrap() plus the first convergence, sampled back to back.
FleetSetUp fleet_set_up(Report& r, const Args& a, std::size_t k) {
  FleetSetUp s;
  scenario::ProcessBackendOptions opt;
  opt.node_binary = a.node_bin;
  opt.work_dir = a.out_dir + "/fleet-" + std::to_string(k);
  std::filesystem::remove_all(opt.work_dir);
  opt.seed = derive_seed(a.workload, a.seed, k);
  // Self-destruct horizon: daemons outlive nothing but a crashed bench.
  opt.node_seconds = static_cast<std::uint64_t>(a.seconds) + 300;
  const std::uint64_t t0 = wall_ns();
  auto runner = std::make_unique<scenario::ProcessRunner>(fleet_spec(), opt);
  if (!runner->bootstrap()) {
    r.fail("fleet bootstrap failed: " + runner->failure());
    return s;
  }
  const std::uint64_t t1 = wall_ns();
  while (!runner->failed()) {
    runner->sample();
    if (runner->converged_sampled()) break;
    if (wall_ns() - t1 > kConvergeBudget * 1000) {
      r.fail("fleet did not converge");
      return s;
    }
  }
  if (runner->failed()) {
    r.fail("fleet set-up: " + runner->failure());
    return s;
  }
  const std::uint64_t t2 = wall_ns();
  s.wall_s = static_cast<double>(t2 - t0) / 1e9;
  s.converge_ms = static_cast<double>(t2 - t1) / 1e6;
  s.runner = std::move(runner);
  return s;
}

/// What the bursts of one run measured, summed over its fleets.
struct Bursts {
  std::vector<double> latency_ms;
  std::vector<double> cpu_ms_per_node_s;  // one per fleet
  Counters traffic;    // between each fleet's two STATUS rounds
  double node_s = 0;   // daemon-seconds between those rounds
  double window_s = 0;  // first start to last finish, per fleet
  double rss_mb = 0;    // largest daemon
};

/// Runs `per_daemon` sequential increments on every daemon of a converged
/// fleet, checks the fleet, and tears it down.
void burst(Report& r, FleetSetUp& fleet, std::uint64_t per_daemon,
           Tracer* tracer, Bursts& out) {
  scenario::ProcessRunner& runner = *fleet.runner;
  runner.step(scenario::Action::mark_stable());
  const std::vector<int> pids = child_pids();
  if (pids.size() != kDaemons) {
    r.fail("expected " + std::to_string(kDaemons) +
           " daemon processes, found " + std::to_string(pids.size()));
  }
  auto daemon_cpu_ns = [&pids] {
    std::uint64_t sum = 0;
    for (int pid : pids) sum += process_cpu_ns(pid);
    return sum;
  };
  Daemons d(runner.work_dir());
  const std::uint64_t s0 = steady_usec();
  const Counters before = d.status();
  const std::uint64_t cpu0 = daemon_cpu_ns();
  const std::uint64_t w0 = steady_usec();
  // Sends INC to every daemon and waits until all three queues drained.
  runner.step(scenario::Action::increment_burst(per_daemon));
  const std::uint64_t cpu1 = daemon_cpu_ns();
  const std::uint64_t w1 = steady_usec();
  out.cpu_ms_per_node_s.push_back(
      frac(static_cast<double>(cpu1 - cpu0) / 1e6,
           static_cast<double>(pids.size()) * static_cast<double>(w1 - w0) /
               1e6));
  // One sample catches every configuration change since mark_stable (the
  // daemons count them), so the closure window is checked over the whole
  // burst; finish() feeds the ops to the counter-order monitor.
  runner.sample();
  const scenario::ScenarioResult res = runner.finish();
  if (!res.failure.empty()) r.fail("fleet: " + res.failure);
  for (const auto& v : res.violations) {
    r.fail("fleet: " + v.invariant + ": " + v.message);
  }
  const Counters after = d.status();
  const std::uint64_t s1 = steady_usec();
  const std::vector<std::vector<Op>> ops = d.ops();
  for (int pid : pids) out.rss_mb = std::max(out.rss_mb, peak_rss_mb(pid));
  const std::string work_dir = runner.work_dir();
  fleet.runner.reset();  // SIGKILL + reap
  // A failed fleet keeps its peer maps and daemon logs for inspection.
  if (r.correct()) std::filesystem::remove_all(work_dir);

  out.traffic.sent += after.sent - before.sent;
  out.traffic.recv += after.recv - before.recv;
  out.traffic.syscalls += after.syscalls - before.syscalls;
  out.traffic.batched += after.batched - before.batched;
  out.node_s +=
      static_cast<double>(kDaemons) * static_cast<double>(s1 - s0) / 1e6;
  std::uint64_t first = ~std::uint64_t{0}, last = 0;
  for (const std::vector<Op>& daemon : ops) {
    if (daemon.size() != per_daemon) {
      r.fail("a daemon completed " + std::to_string(daemon.size()) + " of " +
             std::to_string(per_daemon) + " increments");
    }
    for (const Op& op : daemon) {
      if (op.finished < op.started) continue;
      out.latency_ms.push_back(static_cast<double>(op.finished - op.started) /
                               1e3);
      if (tracer) {
        tracer->add({"fleet.op.inc", 0, 0, kNoNode, op.started * 1000,
                     op.finished * 1000, 0, 0});
      }
      first = std::min(first, op.started);
      last = std::max(last, op.finished);
    }
  }
  if (last > first) out.window_s += static_cast<double>(last - first) / 1e6;
}

}  // namespace

Report run_fleet(const Args& a) {
  Report r;
  if (a.trace) zero_layers(r);
  Tracer tracer;
  // Each fleet runs its share of the increments: one fleet's daemons can
  // land on a busier part of a shared host for their whole life, and a
  // noisy neighbour only ever adds time, so the CPU reading is a low
  // percentile over fleets.
  const std::size_t fleets = a.smoke ? 1 : kFleets;
  const std::uint64_t per_daemon =
      a.smoke ? kSmokeOps
              : std::max<std::uint64_t>(
                    1, static_cast<std::uint64_t>(a.seconds * kOpsPerSecond /
                                                  static_cast<double>(fleets)));
  std::vector<double> setup_s, converge_ms;
  Bursts b;
  for (std::size_t k = 0; k < fleets; ++k) {
    FleetSetUp fleet = fleet_set_up(r, a, k);
    if (!fleet.runner) return r;
    setup_s.push_back(fleet.wall_s);
    converge_ms.push_back(fleet.converge_ms);
    burst(r, fleet, per_daemon, a.trace ? &tracer : nullptr, b);
  }
  r.attempted = b.latency_ms.size();
  if (b.latency_ms.empty()) r.fail("no increment completed");
  std::fprintf(stderr,
               "fleet-3: %zu increments in %zu fleets, %.2f s; cpu ms per "
               "node-s by fleet:",
               b.latency_ms.size(), fleets, b.window_s);
  for (double v : b.cpu_ms_per_node_s) std::fprintf(stderr, " %.3f", v);
  std::fprintf(stderr, "\n");

  const double sent = static_cast<double>(b.traffic.sent);
  if (a.trace) {
    // The daemons cannot be timed from outside: their layer numbers are the
    // STATUS counters; every other layer metric stays 0.
    const double recv = static_cast<double>(b.traffic.recv);
    r.set("net.pkts_sent_per_node_s", frac(sent, b.node_s), "1/s");
    r.set("net.pkts_delivered_per_node_s", frac(recv, b.node_s), "1/s");
    r.set("net.udp.dgrams_per_syscall",
          frac(sent + recv, static_cast<double>(b.traffic.syscalls)), "count");
    r.set("net.udp.batched_frac",
          frac(static_cast<double>(b.traffic.batched), sent), "frac");
    r.set("client.goodput_ops_s",
          frac(static_cast<double>(b.latency_ms.size()), b.window_s), "ops/s");
    tracer.write_jsonl(a);
    return r;
  }
  r.set("setup_s", median(setup_s), "s");
  r.set("converge_ms", median(converge_ms), "ms");
  r.set("cpu_ms_per_node_s", percentile(b.cpu_ms_per_node_s, 25), "ms");
  r.set("latency_p50_ms", median(b.latency_ms), "ms");
  r.set("latency_tail_ms", tail(b.latency_ms, 99), "ms");
  r.set("pkts_per_node_s", frac(sent, b.node_s), "1/s");
  r.set("peak_rss_mb", b.rss_mb, "MB");
  return r;
}

}  // namespace ssr::bench
