#pragma once

// Process execution backend for the scenario engine (POSIX only).
//
// Takes the same ScenarioSpec the simulator consumes and runs it against
// real ssr_node daemons on localhost UDP — one OS process per node — with
// the fault script implemented in OS primitives:
//
//   crash / reboot      SIGKILL (+ a fresh process for the replacement id)
//   pause / resume      SIGSTOP / SIGCONT
//   partition / heal    per-node peer filters installed over the control
//                       socket (UdpTransport::set_blocked on each side)
//   channel garbage     raw junk datagrams fired at every node's data port
//   state corruption    CORRUPT/CONF/PLANT_CTR/RECMA control commands
//   workload            INC/SHMEMW/SHMEMR control commands
//   keyed workload      one single-op INC per routed attempt; it completed
//                       iff the fleet's harvested-op count moved
//
// Node state is sampled over the control socket into the same TraceRecorder
// the simulator uses, and the same InvariantRegistry checks evaluate at the
// end: closure windows over sampled config changes, counter order over the
// per-operation intervals the daemons report, convergence awaits. Wall
// time replaces virtual time; sim durations are scaled by
// ProcessBackendOptions::time_scale.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scenario/backend.hpp"
#include "scenario/control.hpp"
#include "scenario/scenario.hpp"
#include "util/histogram.hpp"

namespace ssr::scenario {

struct ProcessBackendOptions {
  /// Path to the ssr_node binary (required).
  std::string node_binary;
  /// Scratch directory for peer maps, port files and per-node logs; empty =
  /// a fresh mkdtemp under TMPDIR. Kept on failure (CI uploads it), removed
  /// on success unless keep_dir. With more than one fleet, fleet s lives in
  /// its "shard<s>" subdirectory.
  std::string work_dir;
  bool keep_dir = false;
  /// Wall-clock seconds per simulated second for durations in the spec.
  /// Awaits stop early on success, so this mostly paces run_for stretches
  /// and closure windows.
  double time_scale = 0.05;
  /// Floor for await budgets after scaling (process startup + real
  /// convergence time dominate short awaits).
  SimTime min_await = 30 * kSec;
  /// Forwarded into the daemons' RNG seeds (per-fleet and per-node mixed).
  std::uint64_t seed = 1;
  /// --seconds passed to every daemon: a self-destruct horizon so orphans
  /// die even if the runner is SIGKILLed mid-scenario.
  std::uint64_t node_seconds = 900;
  /// Daemon do-forever tick (µs); smaller than the daemon's standalone
  /// default to keep scaled scenarios snappy.
  std::uint64_t tick_us = 2000;
};

/// ScenarioBackend over real processes: one ssr_node fleet per
/// ScenarioSpec::shards, all running concurrently in real time and sampled
/// by one control loop. With more than one fleet, fleet s stamps shard tag
/// s+1 into its UDP envelopes (0 is the untagged default), so disjoint
/// fleets on one host cannot leak protocol traffic into each other even
/// with overlapping node ids. One runner instance runs one spec once; the
/// destructor reaps every child it spawned.
///
/// Threading: deliberately single-threaded. Fleets are separate OS
/// processes driven round-robin from one loop, so there is no shared
/// in-process state to guard.
class ProcessRunner final : public ScenarioBackend {
 public:
  ProcessRunner(ScenarioSpec spec, ProcessBackendOptions opt);
  ~ProcessRunner() override;

  ProcessRunner(const ProcessRunner&) = delete;
  ProcessRunner& operator=(const ProcessRunner&) = delete;

  ScenarioResult run() override;
  /// Fleet 0's trace and registry (the only ones of a one-fleet spec).
  TraceRecorder& trace() override { return fleets_.front().trace; }
  InvariantRegistry& invariants() override {
    return *fleets_.front().registry;
  }

  const std::string& work_dir() const { return dir_; }

  // -- Staged driving ---------------------------------------------------------
  // run() is exactly bootstrap(), then every phase action through step(),
  // then finish(); a caller that times its own stretches calls them itself.

  /// Spawns every fleet's initial cohort and publishes the port maps.
  /// Returns false (with the failure recorded) when a daemon failed to
  /// start.
  bool bootstrap();
  /// Applies one action; records it in the traces first. No-op once failed.
  void step(const Action& a);
  /// Final harvest + invariant evaluation; call once, after the last step.
  ScenarioResult finish();

  bool failed() const { return failed_; }
  const std::string& failure() const { return failure_; }
  /// One sampling round; true when every polled daemon answered.
  bool sample() { return sample_all(); }
  /// The await_converged predicate over the latest samples (no new
  /// sampling).
  bool converged_sampled() const;

 private:
  struct Proc {
    int pid = -1;
    std::uint16_t data_port = 0;
    std::uint16_t ctl_port = 0;
    bool alive = false;
    bool paused = false;
    // Last STATUS sample (valid once sampled = true).
    bool sampled = false;
    bool noreco = false;
    bool participant = false;
    bool cfg_proper = false;
    /// The prediction policy advises reconfiguring `cfg` (STATUS adv=).
    bool advised = false;
    IdSet cfg;
    std::uint64_t cfg_digest = 0;
    std::uint64_t cfgchanges = 0;
    std::uint64_t incq = 0;
    std::uint64_t shmq = 0;
    std::uint64_t sent = 0;
    std::uint64_t recv = 0;
    std::uint64_t syscalls = 0;  // sendmmsg+recvmmsg calls (STATUS syscalls=)
    std::uint64_t batched = 0;   // datagrams sharing a send syscall
    // VS layer sample (valid when has_vs).
    bool has_vs = false;
    bool vs_multicast = false;
    bool vs_null = true;
    bool vs_no_crd = true;
    NodeId vs_crd = kNoNode;
    std::uint64_t vs_view_digest = 0;
    /// How many of the daemon's completed ops were already fed to the
    /// counter-order monitor (the OPS reply is append-only).
    std::size_t ops_harvested = 0;
  };

  /// One ssr_node fleet: its daemons, peer filters, trace, registry and
  /// latency histogram.
  struct Fleet {
    std::string name;
    std::string dir;
    std::uint64_t seed = 0;
    /// Envelope shard tag: 0 for a one-fleet spec, s+1 for fleet s.
    std::uint32_t tag = 0;
    TraceRecorder trace;
    std::unique_ptr<InvariantRegistry> registry;
    std::map<NodeId, Proc> procs;
    /// Runner-side view of each node's peer filter (BLOCK replaces the
    /// whole set, so partitions accumulate here and ship as full sets).
    std::map<NodeId, IdSet> blocked;
    NodeId next_id = 1;
    /// Wall-clock client-op latencies harvested from the daemons.
    util::LatencyHistogram op_latency;
  };

  /// Wall microseconds since run start — the backend's SimTime.
  SimTime now() const;
  SimTime scaled(SimTime sim_duration) const;
  SimTime await_budget(SimTime sim_duration) const;

  NodeId spawn_fresh_node(Fleet& f);
  void spawn(Fleet& f, NodeId id, const std::string& peers_path);
  void kill_node(Fleet& f, NodeId id);
  void write_cohort_peer_map(const Fleet& f);
  bool collect_ports(Fleet& f, NodeId id);
  void fail(const Action& a, const std::string& detail);
  /// Records a failure not tied to one action ("node 3 failed to start").
  void fail_node(const Fleet& f, NodeId id, const std::string& what);

  static IdSet alive(const Fleet& f);
  IdSet targets_or_alive(const Fleet& f, const Action& a) const;
  /// World::common_config over the latest samples: set when every alive
  /// node reports noReco and the same proper configuration, and no node's
  /// prediction policy advises reconfiguring it.
  static std::optional<IdSet> common_config(const Fleet& f);
  /// World::vs_stable over the latest samples: converged, and every alive
  /// participant multicasting in one common non-null view with one
  /// coordinator.
  static bool vs_stable_now(const Fleet& f);
  /// Every alive daemon of `f` is stopped. With more than one fleet,
  /// await_converged and mark_stable skip such a fleet.
  static bool stalled(const Fleet& f);
  bool skipped(const Fleet& f) const {
    return fleets_.size() > 1 && stalled(f);
  }

  /// One STATUS round over every alive, unpaused node of every fleet.
  /// Config changes observed since the previous round are recorded into
  /// the fleet's trace and config-history monitor. An unreachable node is
  /// checked against waitpid: an unexpected exit fails the scenario.
  /// Returns true when every polled node answered this round.
  bool sample_all();
  bool sample_node(Fleet& f, NodeId id, Proc& p);
  /// Pulls completed operations from every alive node into the
  /// counter-order monitors (incremental; safe to call repeatedly).
  void harvest_ops();
  void harvest_ops_from(Fleet& f, NodeId id, Proc& p);

  /// Sleeps in sampling steps until `pred` holds or `budget` elapses.
  template <class Pred>
  bool await(SimTime budget, Pred pred) {
    const SimTime deadline = now() + budget;
    for (;;) {
      sample_all();
      if (failed_) return false;
      if (pred()) return true;
      if (now() >= deadline) return pred();
      step_sleep();
    }
  }

  void step_sleep() const;
  void send_blocked_sets(Fleet& f, const IdSet& touched);
  void control_or_fail(Fleet& f, const Action& a, NodeId id,
                       const std::string& cmd);

  void apply(const Action& a);
  void do_increment_burst(Fleet& f, const Action& a);
  void do_keyed_increments(const Action& a);
  void do_shmem(Fleet& f, const Action& a, bool write);
  void do_garbage(const Fleet& f, std::uint64_t per_node);
  ScenarioResult fleet_result(const Fleet& f) const;

  ScenarioSpec spec_;
  ProcessBackendOptions opt_;
  std::string dir_;
  bool made_dir_ = false;
  std::uint64_t epoch_usec_ = 0;
  ctl::ControlClient client_;
  std::vector<Fleet> fleets_;
  KeyedWorkload keyed_;
  bool failed_ = false;
  std::string failure_;
  bool ran_ = false;
  bool bootstrapped_ = false;
};

}  // namespace ssr::scenario
