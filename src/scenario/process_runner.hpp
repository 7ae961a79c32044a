#pragma once

// Process execution backend for the scenario engine (POSIX only).
//
// The ScenarioBackend interpreter's second fabric: it runs the same
// ScenarioSpec the simulator consumes against real ssr_node daemons on
// localhost UDP — one OS process per node — with every fabric primitive
// implemented in OS primitives:
//
//   crash / reboot      SIGKILL (+ a fresh process for the replacement id)
//   pause / resume      SIGSTOP / SIGCONT
//   partition / heal    per-node peer filters installed over the control
//                       socket (UdpTransport::set_blocked on each side)
//   channel garbage     raw junk datagrams fired at every node's data port
//   state faults        CORRUPT/CONF/PLANT_CTR/RECMA control commands
//   workload            INC/SHMEMW/SHMEMR control commands
//
// Node state is sampled over the control socket into the same TraceRecorder
// the simulator uses, and the same InvariantRegistry checks evaluate at the
// end: closure windows over sampled config changes, counter order over the
// per-operation intervals the daemons report, convergence awaits. Wall
// time replaces virtual time; spec durations are scaled by
// ProcessBackendOptions::time_scale.

#include <cstdint>
#include <map>
#include <string>

#include "node/snapshot.hpp"
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
  /// on success unless keep_dir.
  std::string work_dir;
  bool keep_dir = false;
  /// Wall-clock seconds per simulated second for durations in the spec.
  /// Awaits stop early on success, so this mostly paces run_for stretches
  /// and closure windows.
  double time_scale = 0.05;
  /// Forwarded into the daemons' RNG seeds (mixed with each node id).
  std::uint64_t seed = 1;
  /// --seconds passed to every daemon: a self-destruct horizon so orphans
  /// die even if the runner is SIGKILLed mid-scenario.
  std::uint64_t node_seconds = 900;
};

/// The process fabric: one ssr_node fleet running in real time and sampled
/// by one control loop. One runner instance runs one spec once; the
/// destructor reaps every child it spawned.
///
/// Threading: deliberately single-threaded. The daemons are separate OS
/// processes driven from one loop, so there is no shared in-process state
/// to guard.
class ProcessRunner final : public ScenarioBackend {
 public:
  ProcessRunner(ScenarioSpec spec, ProcessBackendOptions opt);
  ~ProcessRunner() override;

  const std::string& work_dir() const { return dir_; }
  TraceRecorder& trace() override { return trace_; }
  InvariantRegistry& invariants() override { return registry_; }

  // -- Staged driving ---------------------------------------------------------
  // run() is exactly bootstrap(), then every phase action through step(),
  // then finish(); a caller that times its own stretches calls them itself.

  /// Spawns the initial cohort and publishes the port map. Returns false
  /// (with the failure recorded) when a daemon failed to start.
  bool bootstrap() override;

  /// One STATUS round over every alive, unpaused node. Config changes
  /// observed since the previous round are recorded into the trace and the
  /// config-history monitor. An unreachable node is checked against
  /// waitpid: an unexpected exit fails the scenario.
  /// Returns true when every polled node answered this round.
  bool sample();
  /// The await_converged condition over the latest samples (no new
  /// sampling).
  bool converged_sampled() { return converged(); }

 private:
  struct Proc {
    int pid = -1;
    std::uint16_t data_port = 0;
    std::uint16_t ctl_port = 0;
    bool alive = false;
    bool paused = false;
    /// Node half of the last STATUS reply; default (satisfying no
    /// predicate) until the daemon first answers.
    node::NodeSnapshot snap;
    // Daemon counters from the same reply.
    std::uint64_t cfgchanges = 0;
    std::uint64_t incq = 0;
    std::uint64_t shmq = 0;
    std::uint64_t sent = 0;
    std::uint64_t recv = 0;
    std::uint64_t syscalls = 0;  // sendmmsg+recvmmsg calls (STATUS syscalls=)
    std::uint64_t batched = 0;   // datagrams sharing a send syscall
    /// How many of the daemon's completed ops were already fed to the
    /// counter-order monitor (the OPS reply is append-only).
    std::size_t ops_harvested = 0;

    bool sampled() const { return snap.id != kNoNode; }
    /// Alive and not stopped: it answers control requests.
    bool running() const { return alive && !paused; }
  };

  // -- Fabric primitives ------------------------------------------------------
  void spawn(NodeId id) override;
  void crash(NodeId id) override;
  void pause(NodeId id) override;
  void resume(NodeId id) override;
  void cut(const IdSet& a, const IdSet& b) override;
  void heal() override;
  void inject(NodeId id, const StateFault& f) override;
  void garbage(std::uint64_t per_node) override;
  void increments(const IdSet& targets, std::uint64_t per_node) override;
  void shmem(const IdSet& targets, bool write, const std::string& reg,
             std::uint64_t salt) override;
  /// Pulls completed operations from every running node into the
  /// counter-order monitor.
  void harvest() override;
  void run_for(SimTime d) override;
  bool wait_until(SimTime budget, const std::function<bool()>& met) override {
    return await(await_budget(budget), met);
  }
  void refresh() override;
  /// Process-level quiescence is an OS triviality (the processes are gone);
  /// the event-level drain check is a simulator property.
  bool drain(SimTime) override { return true; }
  IdSet alive() override;
  node::NodeSnapshot snapshot(NodeId id) override {
    return procs_.at(id).snap;
  }
  void fill_result(ScenarioResult& r) override;

  /// Wall microseconds since run start — the backend's SimTime.
  SimTime now() const;
  SimTime scaled(SimTime sim_duration) const;
  SimTime await_budget(SimTime sim_duration) const;

  void launch(NodeId id, const std::string& peers_path);
  void write_cohort_peer_map();
  bool collect_ports(NodeId id);
  /// Records a failure at one node ("node 3 failed to start").
  void fail_node(NodeId id, const std::string& what);

  bool sample_node(NodeId id, Proc& p);
  void harvest_ops_from(NodeId id, Proc& p);

  /// Sleeps in sampling steps until `pred` holds or `budget` elapses.
  template <class Pred>
  bool await(SimTime budget, Pred pred) {
    const SimTime deadline = now() + budget;
    for (;;) {
      sample();
      if (failed()) return false;
      if (pred()) return true;
      if (now() >= deadline) return pred();
      step_sleep();
    }
  }

  void step_sleep() const;
  void send_blocked_sets(const IdSet& touched);
  void control_or_fail(NodeId id, const std::string& cmd);
  /// Sends `cmd` to every running target, then waits until each drained
  /// its queue (STATUS `queue`=0) or `budget` (spec time) passed. Returns
  /// the targets it queued on.
  IdSet queue_and_drain(const IdSet& targets, const std::string& cmd,
                        std::uint64_t Proc::*queue, SimTime budget);

  ProcessBackendOptions opt_;
  std::string dir_;
  bool made_dir_ = false;
  std::uint64_t epoch_usec_ = 0;
  ctl::ControlClient client_;
  TraceRecorder trace_;
  InvariantRegistry registry_;
  std::map<NodeId, Proc> procs_;
  /// Runner-side view of each node's peer filter (BLOCK replaces the whole
  /// set, so partitions accumulate here and ship as full sets).
  std::map<NodeId, IdSet> blocked_;
  /// Wall-clock client-op latencies harvested from the daemons.
  util::LatencyHistogram op_latency_;
  bool ran_ = false;
  bool bootstrapped_ = false;
};

}  // namespace ssr::scenario
