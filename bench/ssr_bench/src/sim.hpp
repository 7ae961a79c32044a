#pragma once

// Simulator-side machinery shared by the steady-9, smr-openloop and
// fault-cycle workloads: a cluster built by ScenarioRunner, deterministic
// work totals, the open-loop client population, and the traced run's
// packet tap, isolated tick timings and packet replay.

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "harness/fault_injector.hpp"
#include "scenario/runner.hpp"

namespace ssr::bench {

/// Work counters summed over every node and channel of a world. Every field
/// is a pure function of (workload, seed, window length): the determinism
/// checks compare them exactly.
struct Totals {
  enum Field : std::size_t {
    kEvents,
    kSent,
    kDelivered,
    kLost,
    kOverflowed,
    kDuplicated,
    kRounds,
    kFreshFrames,
    kCleans,
    kResets,
    kInstalls,
    kPhaseTransitions,
    kStaleDetected,
    kRecmaTriggers,
    kLabelExchanges,
    kCounterExchanges,
    kIncCompleted,
    kIncAborted,
    kShmemDone,
    kShmemAborted,
    kVsViews,
    kVsRounds,
    kNumFields
  };
  std::array<std::uint64_t, kNumFields> v{};
  std::uint64_t trace_hash = 0;

  std::uint64_t operator[](Field f) const { return v[f]; }
  Totals minus(const Totals& base) const;
  /// Names the first differing fields ("" when identical).
  std::string diff(const Totals& other) const;
};

/// One simulated cluster: ScenarioRunner builds the world, boots the nodes
/// and wires the trace recorder and invariant registry; the bench then drives
/// runner.world() directly.
class Cluster {
 public:
  Cluster(std::size_t nodes, bool vs, std::uint64_t seed);

  harness::World& world() { return runner_.world(); }
  scenario::InvariantRegistry& registry() { return runner_.invariants(); }
  scenario::TraceRecorder& trace() { return runner_.trace(); }
  harness::FaultInjector& injector() { return injector_; }
  bool vs() const { return vs_; }

  /// converged(), plus vs_stable() when the VS layer is on.
  bool ready();
  Totals totals();
  SimTime now() { return world().scheduler().now(); }

  /// Runs `dt` of virtual time and adds alive-node seconds to the ledger.
  void advance(SimTime dt);
  double node_seconds() const { return node_seconds_; }

  /// Polls `pred` every kPollStep of virtual time (the runner's own 20 ms
  /// await would quantize a ~40 ms recovery by 50%), and every
  /// kFinePollStep during the first `fine_for`. Returns the virtual time
  /// from now until the start of the first stretch in which `pred` held for
  /// `hold` without a break, or nullopt once `budget` passed without one.
  /// With a tracer every poll is timed into the "harness.poll" aggregate.
  template <class Pred>
  std::optional<SimTime> poll_until(Pred pred, SimTime budget,
                                    Tracer* tracer = nullptr,
                                    SimTime hold = 0, SimTime fine_for = 0) {
    constexpr SimTime kNone = ~SimTime{0};
    const SimTime start = now();
    SimTime since = kNone;  // start of the current stretch in which pred held
    for (;;) {
      const std::uint64_t t0 = tracer ? wall_ns() : 0;
      const bool ok = pred();
      if (tracer) tracer->aggregate("harness.poll", wall_ns() - t0);
      if (!ok) {
        since = kNone;
      } else if (since == kNone) {
        since = now();
      }
      if (since != kNone && now() - since >= hold) return since - start;
      if (now() - start >= budget + hold) return std::nullopt;
      advance(now() - start < fine_for ? kFinePollStep : kPollStep);
    }
  }

  /// Fine enough that bootstrap and recovery times (tens to hundreds of
  /// virtual ms) are not rounded to whole milliseconds.
  static constexpr SimTime kPollStep = 100 * kUsec;
  /// For recoveries of about a millisecond (a planted conflict is resolved
  /// at the next node tick).
  static constexpr SimTime kFinePollStep = 10 * kUsec;
  static constexpr SimTime kFinePollFor = 10 * kMsec;
  /// A converged() reading can be momentary: right after a transient blast
  /// or a planted conflict a node still holding stale state may change its
  /// configuration a few milliseconds later. Convergence therefore counts
  /// from the start of the first stretch in which it held this long.
  static constexpr SimTime kStableFor = 50 * kMsec;

 private:
  bool vs_;
  scenario::ScenarioRunner runner_;
  harness::FaultInjector injector_;
  double node_seconds_ = 0;
};

struct SetUp {
  std::unique_ptr<Cluster> cluster;  // null when it never became ready
  std::uint64_t seed = 0;
  double wall_s = 0;
  double converge_ms = 0;
  Totals at_ready;
};

/// Construction plus first convergence (and VS stability when enabled),
/// timed in wall seconds and measured in virtual milliseconds.
SetUp set_up(std::size_t nodes, bool vs, std::uint64_t seed);

/// The set-ups of one run, on seeds derived from (workload, --seed, 0, 1,
/// ...). A seed whose bootstrap never converges is skipped and the next one
/// used: on rare seeds the library's own bootstrap livelocks (one node stays
/// in reconfiguration, another without a configuration), which is a defect
/// of the protocol code, not of a workload. Each skip is reported on
/// stderr; more than kMaxSkips in a run fail it.
class SeedStream {
 public:
  SeedStream(Report& r, const Args& a, std::size_t nodes, bool vs)
      : r_(r), a_(a), nodes_(nodes), vs_(vs) {}
  /// The next converged set-up; null cluster once too many were skipped.
  SetUp next();

  static constexpr std::size_t kMaxSkips = 3;

 private:
  Report& r_;
  const Args& a_;
  std::size_t nodes_;
  bool vs_;
  std::uint64_t index_ = 0;
  std::size_t skips_ = 0;
};

/// Open-loop client population: Poisson arrivals at `rate` ops per virtual
/// second, each queued in the FIFO of a uniformly chosen alive node; a node
/// runs one operation at a time. Latency runs from the due time, so a stall
/// also delays every operation queued behind it. Everything happens inside
/// scheduler events, so the arrival stream and every begin() are exact in
/// virtual time.
class OpDriver {
 public:
  enum class Kind : std::uint8_t { kInc, kWrite, kRead };
  struct Mix {
    double inc = 1.0;
    double write = 0.0;  // the rest are reads
  };
  struct Op {
    Kind kind = Kind::kInc;
    NodeId node = kNoNode;
    std::string reg;
    SimTime due = 0;
    SimTime begin = 0;  // first begin() attempt
    SimTime ok_begin = 0;  // begin of the attempt that completed
    SimTime done = 0;
    unsigned attempts = 0;
    bool finished = false;
    bool ok = false;
    counter::Counter tag;  // counter (inc) or register tag (read/write)
    std::uint64_t wall_due = 0;
    std::uint64_t wall_begin = 0;
  };

  OpDriver(Cluster& c, double rate, Mix mix, std::uint64_t seed,
           Tracer* tracer);
  OpDriver(const OpDriver&) = delete;
  OpDriver& operator=(const OpDriver&) = delete;

  void start();
  /// Arrivals due from now on are dropped; queued operations still run.
  void stop_arrivals() { stopped_ = true; }
  bool idle() const;
  const std::vector<Op>& ops() const { return ops_; }

  /// Feeds completed increments to the registry's counter-order monitor and
  /// checks register atomicity (a read returns a tag no older than any
  /// write that completed before it began). Returns an error or "".
  std::string check(scenario::InvariantRegistry& reg) const;

 private:
  void schedule_arrival();
  void on_arrival();
  void pump(NodeId node);
  void attempt(NodeId node, std::size_t op);
  void complete(NodeId node, std::size_t op, bool ok,
                const counter::Counter& tag);
  void retry_later(NodeId node);

  Cluster& c_;
  double rate_;
  Mix mix_;
  Rng rng_;
  Tracer* tracer_;
  bool stopped_ = false;
  std::vector<Op> ops_;
  std::map<NodeId, std::deque<std::size_t>> fifo_;
  std::map<NodeId, bool> busy_;
};

/// What a packet tap saw.
struct RxTap {
  /// Set in a traced run: time the rx path and keep sample payloads.
  Tracer* tracer = nullptr;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ns = 0;
  std::vector<wire::Bytes> sample;  // every 64th payload, capped
  /// Virtual µs between successive completed token rounds of one directed
  /// link (a round ends on the ack that crosses the threshold, and the next
  /// begins at once). A link's first round after attaching is not counted.
  std::vector<std::uint32_t> round_us;
  std::map<std::pair<NodeId, NodeId>, SimTime> last_round;
};

/// Re-attaches each alive node's packet handler at the Network with a
/// wrapper that notes token-round completions and, with a tracer, times the
/// rx path (LinkMux::handle_packet), counts bytes and samples payloads for
/// the replay benches. The wrapper does exactly the handler's work, so the
/// execution is unchanged (the traced run checks that against the untraced
/// counts). `tap` must outlive every later step of the cluster's scheduler.
void tap_rx(Cluster& c, RxTap& tap);

/// Per-call cost of each component's public tick() (and of the FD and
/// convergence reads), timed in isolation on the final converged state:
/// K calls per node, cache-warm, so they understate the in-situ cost.
struct TickCosts {
  double recsa = 0, recma = 0, join = 0, label = 0, counter = 0, inc = 0,
         vs = 0, shmem = 0, fd_trusted = 0, converged = 0;
  double node() const {
    return recsa + recma + join + label + counter + inc + vs + shmem;
  }
};
TickCosts time_ticks(Cluster& c, int reps);

/// Replays captured packets through dlink::Frame::decode + decode_bundle
/// and through a standalone net::Channel (send, then deliver).
struct ReplayCosts {
  double frame_decode_ns = 0;
  double channel_send_ns = 0;
};
ReplayCosts replay(const std::vector<wire::Bytes>& packets,
                   const net::ChannelConfig& cfg);

/// Expected node ticks in `sim` of virtual time for `nodes` alive nodes:
/// the tick period is jittered uniformly by up to a quarter.
double expected_ticks(SimTime tick_period, std::size_t nodes, SimTime sim);

}  // namespace ssr::bench
