// ssr_bench: one workload per process. Prints diagnostics on stderr and, as
// the last line of stdout, {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when a correctness check failed, 2 on a usage error.
//
//   ssr_bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//             [--node-bin PATH] [--out DIR] [--recover-deadline-ms MS]
//             [--rate OPS]
//
// W is steady-9, smr-openloop, fault-transient, fault-conflict,
// fault-partition, fault-crash or fleet-3.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "bench.hpp"

// Counting allocator: wire.allocs_per_event divides this counter's delta
// over the measured window by the scheduler events executed in it.
namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ssr::bench {
namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::uint64_t timespec_ns(const timespec& ts) {
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Peak RSS comes from VmHWM, not getrusage: ru_maxrss survives execve, so a
// process started from a bigger parent (run.py's Python) would report the
// parent's footprint.
double vm_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ssr_bench --workload W --seed N --seconds S "
               "--trace 0|1 [--smoke] [--node-bin PATH] [--out DIR] "
               "[--recover-deadline-ms MS] [--rate OPS]\n"
               "workloads: steady-9 smr-openloop fault-transient "
               "fault-conflict fault-partition fault-crash fleet-3\n");
  return 2;
}

}  // namespace

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::fail(const std::string& why) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  errors_.push_back(why);
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) os << ", ";
    first = false;
    os << json_string(name) << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}}";
  return os.str();
}

std::uint64_t wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return timespec_ns(ts);
}

std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return timespec_ns(ts);
}

std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

double peak_rss_mb_self() { return vm_hwm_mb("self"); }

double peak_rss_mb(int pid) { return vm_hwm_mb(std::to_string(pid)); }

std::vector<int> child_pids() {
  std::vector<int> out;
  const std::string self = std::to_string(::getpid());
  for (const auto& e : std::filesystem::directory_iterator("/proc")) {
    const std::string pid = e.path().filename();
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    // stat: "pid (comm) state ppid ..."; comm may hold spaces, so parse
    // from the last ')'.
    std::ifstream in(e.path() / "stat");
    std::string stat;
    std::getline(in, stat);
    const auto close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 1));
    std::string state, ppid;
    rest >> state >> ppid;
    if (ppid == self) out.push_back(std::stoi(pid));
  }
  return out;
}

std::uint64_t process_cpu_ns(int pid) {
  clockid_t clock{};
  timespec ts{};
  if (clock_getcpuclockid(pid, &clock) != 0) return 0;
  if (clock_gettime(clock, &ts) != 0) return 0;
  return timespec_ns(ts);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double tail(std::vector<double> v, double p) {
  const std::size_t n = v.size();
  if (n <= 10) return percentile(std::move(v), 100);
  // Nearest rank of p, capped at rank n - 10 (ten samples beyond it).
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n))),
      n - 10);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

std::uint64_t derive_seed(const std::string& workload, std::uint64_t seed,
                          std::uint64_t index) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the name
  for (char c : workload) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  // splitmix64 finalizer over (name hash, seed, index)
  std::uint64_t z = h ^ (seed * 0x9E3779B97F4A7C15ULL) ^
                    (index * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Zero defaults, so every workload reports the full per-layer set; layers a
/// workload does not exercise stay 0. Wall-clock timings (ns) are measured on
/// every simulator workload; virtual-time readings (sim_ms) exist only where
/// the workload has the operation or fault they time.
void zero_layers(Report& r) {
  for (const char* n :
       {"sim.events_per_node_s", "net.pkts_sent_per_node_s",
        "net.pkts_delivered_per_node_s", "dlink.rounds_per_link_s",
        "label.exchanges_per_node_s", "vs.rounds_per_s"}) {
    r.set(n, 0, "1/s");
  }
  for (const char* n :
       {"sim.wall_ns_per_event", "net.channel_send_ns", "wire.frame_decode_ns",
        "dlink.rx_ns_per_pkt", "fd.trusted_ns", "reconf.recsa_tick_ns",
        "reconf.recma_tick_ns", "reconf.join_tick_ns", "label.tick_ns",
        "counter.tick_ns", "counter.inc_tick_ns", "shmem.tick_ns",
        "node.tick_ns", "harness.converged_ns"}) {
    r.set(n, 0, "ns");
  }
  for (const char* n :
       {"sim.other_share", "net.loss_frac", "net.overflow_frac",
        "net.dup_frac", "net.udp.batched_frac", "wire.pool_hit_frac",
        "dlink.fresh_frac", "dlink.rx_share", "counter.inc_abort_frac",
        "vs.tick_share", "shmem.abort_frac", "node.tick_share",
        "harness.poll_share", "trace_overhead_frac"}) {
    r.set(n, 0, "frac");
  }
  for (const char* n :
       {"net.udp.dgrams_per_syscall", "wire.allocs_per_event",
        "dlink.pkts_per_round", "dlink.cleans_per_fault",
        "reconf.resets_per_fault", "reconf.installs_per_fault",
        "reconf.phase_transitions_per_fault",
        "reconf.stale_detected_per_fault", "reconf.recma_triggers_per_fault",
        "reconf.closure_config_changes", "counter.exchanges_per_op",
        "vs.view_changes"}) {
    r.set(n, 0, "count");
  }
  for (const char* n :
       {"fd.suspect_ms", "counter.service_p50_ms", "counter.queue_wait_p99_ms",
        "shmem.write_p50_ms", "shmem.read_p50_ms"}) {
    r.set(n, 0, "sim_ms");
  }
  r.set("wire.bytes_per_pkt", 0, "B");
  r.set("client.goodput_ops_s", 0, "ops/s");
}

std::uint64_t Tracer::add(Span s) {
  s.id = spans_.size() + 1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::aggregate(const std::string& layer, std::uint64_t ns,
                       std::uint64_t count) {
  Agg& a = aggs_[layer];
  a.count += count;
  a.ns += ns;
}

Tracer::Agg Tracer::agg(const std::string& layer) const {
  auto it = aggs_.find(layer);
  return it == aggs_.end() ? Agg{} : it->second;
}

void Tracer::write_jsonl(const Args& a) const {
  std::ofstream out(a.out_dir + "/" + a.workload + ".trace.jsonl");
  out << "{\"kind\": \"meta\", \"workload\": " << json_string(a.workload)
      << ", \"seed\": " << a.seed << ", \"spans\": " << spans_.size()
      << ", \"time_units\": {\"wall\": \"ns\", \"sim\": \"us\"}}\n";
  for (const Span& s : spans_) {
    out << "{\"kind\": \"span\", \"name\": " << json_string(s.name)
        << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"node\": " << s.node << ", \"wall_start\": " << s.wall_start
        << ", \"wall_end\": " << s.wall_end
        << ", \"sim_start\": " << s.sim_start
        << ", \"sim_end\": " << s.sim_end << "}\n";
  }
  for (const auto& [layer, a] : aggs_) {
    out << "{\"kind\": \"agg\", \"layer\": " << json_string(layer)
        << ", \"count\": " << a.count << ", \"ns\": " << a.ns << "}\n";
  }
}

}  // namespace ssr::bench

int main(int argc, char** argv) {
  using namespace ssr::bench;
  Args a;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage();
      a.trace = v == "1";
      have_trace = true;
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--node-bin" && has_value) {
      a.node_bin = argv[++i];
    } else if (arg == "--out" && has_value) {
      a.out_dir = argv[++i];
    } else if (arg == "--recover-deadline-ms" && has_value) {
      a.recover_deadline =
          std::strtoull(argv[++i], nullptr, 10) * ssr::kMsec;
    } else if (arg == "--rate" && has_value) {
      a.rate = std::strtod(argv[++i], nullptr);
    } else {
      return usage();
    }
  }
  if (a.workload.empty() || !have_trace || !(a.seconds > 0)) return usage();

  std::filesystem::create_directories(a.out_dir);
  Report r;
  if (a.workload == "steady-9") {
    r = run_steady(a);
  } else if (a.workload == "smr-openloop") {
    r = run_smr(a);
  } else if (is_fault_workload(a.workload)) {
    r = run_fault(a);
  } else if (a.workload == "fleet-3") {
    if (a.node_bin.empty()) return usage();
    r = run_fleet(a);
  } else {
    return usage();
  }

  const std::string line = r.json();
  {
    std::ofstream out(a.out_dir + "/" + a.workload +
                      (a.trace ? ".traced.json" : ".json"));
    out << line << "\n";
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
