#include "scenario/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "scenario/runner.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#define SSR_SWEEP_HAS_THREAD_CPU 1
#else
#define SSR_SWEEP_HAS_THREAD_CPU 0
#endif

// DESIGN — why a parallel sweep is byte-identical to a serial one.
//
// A (spec, seed) job touches, transitively: the World (scheduler, network,
// channels, nodes — all owned by the job), thread-local pools
// (wire::BufferPool, the TraceRecorder segment pool — recycled buffers are
// fully rewritten before being read), and the C++ heap (thread-safe, and
// allocation addresses never feed the trace). The remaining shared state in
// the library was audited for this engine and consists only of immutable
// function-local statics initialized on first use — scenario::library(),
// RecSA's kBottom / kEmptyEcho sentinels and wire::crc32c's implementation
// pointer (both implementations return identical values) — which C++
// guarantees thread-safe to initialize and which no code path mutates
// afterwards.
// There is no global RNG: every random draw forks from the World's seed.
// Keep it that way; a new mutable global in the node stack would surface
// here first (and in the TSan CI job, which runs this engine).

namespace ssr::scenario {
namespace {

double thread_cpu_sec() {
#if SSR_SWEEP_HAS_THREAD_CPU
  timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
#else
  return 0;
#endif
}

}  // namespace

std::string SweepSummary::summary() const {
  std::ostringstream os;
  os << "sweep: " << results.size() << " runs, " << failed << " failed";
  if (op_latency.count() > 0) {
    os << ", " << op_latency.count() << " ops"
       << " p50=" << op_latency.percentile(50) << "us"
       << " p99=" << op_latency.percentile(99) << "us"
       << " p999=" << op_latency.percentile(99.9) << "us";
  }
  os << ", wall=" << static_cast<std::uint64_t>(wall_ms) << "ms";
  return os.str();
}

SweepRunner::SweepRunner(SweepOptions opt) : opt_(std::move(opt)) {
  if (opt_.jobs == 0) opt_.jobs = 1;
}

void SweepRunner::add(const ScenarioSpec& spec, std::uint64_t seed) {
  jobs_.push_back(SweepJob{spec, seed});
}

void SweepRunner::add_seed_range(const ScenarioSpec& spec, std::uint64_t first,
                                 std::uint64_t last) {
  for (std::uint64_t s = first; s <= last; ++s) {
    add(spec, s);
    if (s == last) break;  // guard seed == UINT64_MAX wrap
  }
}

ScenarioResult SweepRunner::run_job(const SweepJob& job,
                                    std::size_t index) const {
  // Fully isolated world: constructed, run, and destroyed inside the job.
  ScenarioRunner runner(job.spec, job.seed);
  ScenarioResult r = runner.run();
  if (!opt_.record_dir.empty()) {
    // The submission index makes the path unique per job by construction;
    // no two concurrent jobs can collide even on duplicate (spec, seed).
    std::ostringstream path;
    path << opt_.record_dir << "/" << index << "-" << job.spec.name << "-seed"
         << job.seed << ".trace";
    std::ofstream out(path.str());
    if (out) runner.trace().save(out);
  }
  return r;
}

void SweepRunner::work() {
  const double cpu0 = thread_cpu_sec();
  for (;;) {
    std::size_t index;
    {
      util::MutexLock lock(mu_);
      if (next_ >= jobs_.size()) break;
      index = next_++;
    }
    Harvested h;
    h.index = index;
    h.result = run_job(jobs_[index], index);
    util::MutexLock lock(mu_);
    harvested_.push_back(std::move(h));
  }
  // Per-worker CPU attribution: measured on the worker thread itself, so
  // the slowest-worker figure is a real clock reading, not an estimate.
  const double cpu = thread_cpu_sec() - cpu0;
  util::MutexLock lock(mu_);
  worker_cpu_.push_back(cpu);
}

SweepSummary SweepRunner::run() {
  const auto wall_start = std::chrono::steady_clock::now();
  if (!opt_.record_dir.empty()) {
    // Created up front, single-threaded: workers only append files into it.
    std::error_code ec;
    std::filesystem::create_directories(opt_.record_dir, ec);
  }
  {
    util::MutexLock lock(mu_);
    next_ = 0;
    harvested_.clear();
    harvested_.reserve(jobs_.size());
    worker_cpu_.clear();
  }

  const std::size_t workers = std::min(opt_.jobs, std::max<std::size_t>(
                                                      jobs_.size(), 1));
  if (workers <= 1) {
    // Serial fast path: no threads, same code path per job. This is the
    // reference execution the determinism property compares against.
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([this] { work(); });
    }
    for (std::thread& t : pool) t.join();
  }

  SweepSummary out;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  util::MutexLock lock(mu_);
  // Drain the harvest queue into submission-order slots: report order is a
  // function of what was submitted, never of worker finish order.
  out.results.resize(jobs_.size());
  for (Harvested& h : harvested_) {
    out.results[h.index] = std::move(h.result);
  }
  for (double c : worker_cpu_) {
    out.max_worker_cpu_sec = std::max(out.max_worker_cpu_sec, c);
    out.total_worker_cpu_sec += c;
  }
  for (const ScenarioResult& r : out.results) {
    if (!r.ok) ++out.failed;
    out.op_latency.merge(r.op_latency);
  }
  out.ok = out.failed == 0;
  return out;
}

SweepSummary run_sweep(const std::vector<ScenarioSpec>& specs,
                       std::uint64_t first_seed, std::uint64_t last_seed,
                       std::size_t jobs) {
  SweepOptions opt;
  opt.jobs = jobs;
  SweepRunner runner(opt);
  for (const ScenarioSpec& spec : specs) {
    runner.add_seed_range(spec, first_seed, last_seed);
  }
  return runner.run();
}

}  // namespace ssr::scenario
