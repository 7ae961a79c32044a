#pragma once

// Shared pieces of ssr_bench: command-line arguments, the result report,
// clocks, sample statistics and the span recorder of the traced run.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace ssr::bench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sets how much work a run does: each workload does a fixed amount per
  /// second (virtual seconds, fault seeds or operations), sized so that the
  /// measured part takes about this many wall seconds on the 4-vCPU test
  /// host. Never compared with elapsed time, so two commits given the same
  /// value run the same inputs.
  double seconds = 10.0;
  bool trace = false;
  /// A few sim-seconds, 2 fault seeds, a 200-op fleet: a functional check.
  bool smoke = false;
  std::string node_bin;
  std::string out_dir = "bench_out";
  /// A recovery that takes longer than this (virtual time) is a failure.
  SimTime recover_deadline = 20 * kSec;
  /// smr-openloop arrival rate in ops per virtual second (0: the workload's
  /// own), for the by-hand search of the highest sustainable rate.
  double rate = 0;
};

/// Outcome of one workload run: the metrics plus the correctness verdict.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Records a broken correctness check; the run then exits nonzero.
  void fail(const std::string& why);

  bool correct() const { return errors_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// The result object, one line, no trailing newline.
  std::string json() const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> errors_;
};

std::uint64_t wall_ns();
/// CPU time of this process (the simulator is single-threaded).
std::uint64_t cpu_ns();
/// operator new calls in this process so far.
std::uint64_t allocations();
/// Peak resident set of this process / of another one, in MB.
double peak_rss_mb_self();
double peak_rss_mb(int pid);
/// Live child processes of this process.
std::vector<int> child_pids();
/// CPU time another process has used so far (0 once it is gone).
std::uint64_t process_cpu_ns(int pid);

/// Nearest-rank percentile (p in [0,100]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50);
}
/// The p-th percentile, or a lower one so that at least ten samples lie
/// beyond it (the largest sample when there are ten or fewer).
double tail(std::vector<double> v, double p);
/// num / den, or 0 when there is no base.
inline double frac(double num, double den) { return den > 0 ? num / den : 0; }
inline double ms(SimTime t) { return static_cast<double>(t) / kMsec; }

/// Sets every per-layer metric to 0, so each workload reports the full set;
/// layers a workload does not exercise stay 0.
void zero_layers(Report& r);

/// Deterministic per-(workload, seed, index) stream seed.
std::uint64_t derive_seed(const std::string& workload, std::uint64_t seed,
                          std::uint64_t index);

/// In-memory span store of the traced run, written as JSON lines at exit.
/// Spans carry wall and virtual start/end plus a parent link; per-packet
/// work is folded into per-layer {count, ns} aggregates instead.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    NodeId node = kNoNode;
    std::uint64_t wall_start = 0;
    std::uint64_t wall_end = 0;
    SimTime sim_start = 0;
    SimTime sim_end = 0;
  };
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
  };

  /// Stores a finished span and returns its id (ids start at 1).
  std::uint64_t add(Span s);
  void aggregate(const std::string& layer, std::uint64_t ns,
                 std::uint64_t count = 1);
  Agg agg(const std::string& layer) const;
  /// Writes <out_dir>/<workload>.trace.jsonl.
  void write_jsonl(const Args& a) const;

 private:
  std::vector<Span> spans_;
  std::map<std::string, Agg> aggs_;
};

Report run_steady(const Args& a);
Report run_smr(const Args& a);
/// fault-transient, fault-conflict, fault-partition or fault-crash, by
/// a.workload; false when the name is none of them.
bool is_fault_workload(const std::string& name);
Report run_fault(const Args& a);
Report run_fleet(const Args& a);

}  // namespace ssr::bench
