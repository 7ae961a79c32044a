#include "sim.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "dlink/frame.hpp"
#include "sim/scheduler.hpp"

namespace ssr::bench {
namespace {

constexpr const char* kFieldNames[Totals::kNumFields] = {
    "events",          "sent",           "delivered",    "lost",
    "overflowed",      "duplicated",     "rounds",       "fresh_frames",
    "cleans",          "resets",         "installs",     "phase_transitions",
    "stale_detected",  "recma_triggers", "label_exchanges",
    "counter_exchanges", "inc_completed", "inc_aborted", "shmem_done",
    "shmem_aborted",   "vs_views",       "vs_rounds"};

scenario::ScenarioSpec spec_for(std::size_t nodes, bool vs) {
  scenario::ScenarioSpec s;
  s.name = "ssr_bench";
  s.initial_nodes = nodes;
  s.enable_vs = vs;
  return s;
}

/// Give-up horizon for a set-up; bootstrap converges in well under a
/// virtual second on every workload.
constexpr SimTime kSetUpBudget = 60 * kSec;
/// Client retry policy: an operation is abandoned after this many attempts
/// or this long past its due time; refused attempts back off by kRetry.
constexpr unsigned kMaxAttempts = 12;
constexpr SimTime kGiveUp = 10 * kSec;
constexpr SimTime kRetry = 10 * kMsec;
constexpr const char* kRegisterNames[] = {"r0", "r1", "r2", "r3"};
/// Replay sample: every 64th packet, at most this many.
constexpr std::size_t kSampleEvery = 64;
constexpr std::size_t kSampleCap = 4096;

}  // namespace

// -- Totals -------------------------------------------------------------------

Totals Totals::minus(const Totals& base) const {
  Totals out;
  for (std::size_t i = 0; i < kNumFields; ++i) {
    // Link counters live in the links of alive nodes, so a crash removes
    // them; clamp instead of wrapping.
    out.v[i] = v[i] >= base.v[i] ? v[i] - base.v[i] : 0;
  }
  out.trace_hash = trace_hash;
  return out;
}

std::string Totals::diff(const Totals& other) const {
  std::ostringstream os;
  if (trace_hash != other.trace_hash) {
    os << "trace_hash " << std::hex << trace_hash << " vs " << other.trace_hash
       << std::dec << "; ";
  }
  for (std::size_t i = 0; i < kNumFields; ++i) {
    if (v[i] != other.v[i]) {
      os << kFieldNames[i] << " " << v[i] << " vs " << other.v[i] << "; ";
    }
  }
  return os.str();
}

// -- Cluster ------------------------------------------------------------------

Cluster::Cluster(std::size_t nodes, bool vs, std::uint64_t seed)
    : vs_(vs),
      runner_(spec_for(nodes, vs), seed),
      injector_(runner_.world(), seed ^ 0xFA417ULL) {}

bool Cluster::ready() {
  if (!world().converged()) return false;
  return !vs_ || world().vs_stable();
}

void Cluster::advance(SimTime dt) {
  node_seconds_ += static_cast<double>(world().alive().size()) *
                   static_cast<double>(dt) / kSec;
  world().run_for(dt);
}

Totals Cluster::totals() {
  Totals t;
  harness::World& w = world();
  t.v[Totals::kEvents] = w.scheduler().events_executed();
  w.network().for_each_channel([&t](NodeId, NodeId, net::Channel& ch) {
    const net::Channel::Stats& s = ch.stats();
    t.v[Totals::kSent] += s.sent;
    t.v[Totals::kDelivered] += s.delivered;
    t.v[Totals::kLost] += s.lost;
    t.v[Totals::kOverflowed] += s.overflowed;
    t.v[Totals::kDuplicated] += s.duplicated;
  });
  for (NodeId id : w.all_ids()) {
    node::Node& n = w.node(id);
    n.mux().for_each_peer([&](NodeId peer) {
      if (const dlink::TokenLink* l = n.mux().link(peer)) {
        t.v[Totals::kRounds] += l->stats().rounds_completed;
        t.v[Totals::kFreshFrames] += l->stats().frames_delivered;
        t.v[Totals::kCleans] += l->stats().cleans_completed;
      }
    });
    const reconf::RecSAStats& rs = n.recsa().stats();
    t.v[Totals::kResets] += rs.resets_started;
    t.v[Totals::kInstalls] += rs.brute_installs + rs.delicate_installs;
    t.v[Totals::kPhaseTransitions] += rs.phase_transitions;
    for (std::uint64_t s : rs.stale_detected) t.v[Totals::kStaleDetected] += s;
    t.v[Totals::kRecmaTriggers] += n.recma().stats().majority_loss_triggers +
                                   n.recma().stats().eval_conf_triggers;
    t.v[Totals::kLabelExchanges] += n.labeling().stats().exchanges;
    t.v[Totals::kCounterExchanges] += n.counters().stats().exchanges;
    t.v[Totals::kIncCompleted] += n.increment().stats().completed;
    t.v[Totals::kIncAborted] += n.increment().stats().aborted;
    const shmem::ShmemStats& ss = n.registers().stats();
    t.v[Totals::kShmemDone] += ss.reads_completed + ss.writes_completed;
    t.v[Totals::kShmemAborted] += ss.ops_aborted;
    if (vs::VsSmr* v = n.vs()) {
      t.v[Totals::kVsViews] += v->stats().views_installed;
      t.v[Totals::kVsRounds] += v->stats().rounds_applied;
    }
  }
  t.trace_hash = trace().hash();
  return t;
}

SetUp set_up(std::size_t nodes, bool vs, std::uint64_t seed) {
  SetUp s;
  s.seed = seed;
  const std::uint64_t t0 = wall_ns();
  auto c = std::make_unique<Cluster>(nodes, vs, seed);
  const auto took = c->poll_until([&] { return c->ready(); }, kSetUpBudget,
                                  nullptr, Cluster::kStableFor);
  s.wall_s = static_cast<double>(wall_ns() - t0) / 1e9;
  if (!took) return s;
  s.converge_ms = static_cast<double>(*took) / kMsec;
  s.at_ready = c->totals();
  s.cluster = std::move(c);
  return s;
}

SetUp SeedStream::next() {
  for (;;) {
    SetUp s = set_up(nodes_, vs_, derive_seed(a_.workload, a_.seed, index_++));
    if (s.cluster) return s;
    std::fprintf(stderr, "%s: set-up on seed %llu did not converge; skipped\n",
                 a_.workload.c_str(), static_cast<unsigned long long>(s.seed));
    if (++skips_ > kMaxSkips) {
      r_.fail("more than " + std::to_string(kMaxSkips) +
              " set-ups did not converge");
      return s;
    }
  }
}

double expected_ticks(SimTime tick_period, std::size_t nodes, SimTime sim) {
  // Period + uniform jitter in [0, period/4]: mean period · 9/8.
  const double mean = static_cast<double>(tick_period) * 9.0 / 8.0;
  return static_cast<double>(nodes) * static_cast<double>(sim) / mean;
}

// -- OpDriver -----------------------------------------------------------------

OpDriver::OpDriver(Cluster& c, double rate, Mix mix, std::uint64_t seed,
                   Tracer* tracer)
    : c_(c), rate_(rate), mix_(mix), rng_(seed), tracer_(tracer) {}

void OpDriver::start() { schedule_arrival(); }

bool OpDriver::idle() const {
  for (const auto& [id, q] : fifo_) {
    (void)id;
    if (!q.empty()) return false;
  }
  return true;
}

void OpDriver::schedule_arrival() {
  const double u =
      (static_cast<double>(rng_.next_u64() >> 11) + 0.5) / 9007199254740992.0;
  const double gap_s = -std::log(u) / rate_;
  c_.world().scheduler().schedule_after(
      static_cast<SimTime>(gap_s * static_cast<double>(kSec)),
      [this] { on_arrival(); });
}

void OpDriver::on_arrival() {
  if (stopped_) return;
  const IdSet alive = c_.world().alive();
  Op op;
  std::size_t pick = rng_.next_below(alive.size());
  for (NodeId id : alive) {
    if (pick-- == 0) {
      op.node = id;
      break;
    }
  }
  const double r =
      static_cast<double>(rng_.next_u64() >> 11) / 9007199254740992.0;
  op.kind = r < mix_.inc               ? Kind::kInc
            : r < mix_.inc + mix_.write ? Kind::kWrite
                                        : Kind::kRead;
  op.reg = kRegisterNames[rng_.next_below(std::size(kRegisterNames))];
  op.due = c_.now();
  if (tracer_) op.wall_due = wall_ns();
  ops_.push_back(std::move(op));
  fifo_[ops_.back().node].push_back(ops_.size() - 1);
  pump(ops_.back().node);
  schedule_arrival();
}

void OpDriver::pump(NodeId node) {
  auto& q = fifo_[node];
  while (!q.empty() && !busy_[node]) {
    Op& op = ops_[q.front()];
    if (op.attempts >= kMaxAttempts || c_.now() - op.due > kGiveUp ||
        c_.world().node(node).crashed()) {
      op.finished = true;  // abandoned: counts as a failed operation
      q.pop_front();
      continue;
    }
    attempt(node, q.front());
    return;
  }
}

void OpDriver::attempt(NodeId node, std::size_t idx) {
  Op& op = ops_[idx];
  node::Node& n = c_.world().node(node);
  const SimTime now = c_.now();
  if (op.attempts++ == 0) {
    op.begin = now;
    if (tracer_) op.wall_begin = wall_ns();
  }
  busy_[node] = true;
  const std::uint64_t t0 = tracer_ ? wall_ns() : 0;
  bool begun = false;
  // Completions can fire synchronously inside begin() (a refused increment
  // reports ⊥ at once), so they are handed back through a zero-delay event.
  auto& sched = c_.world().scheduler();
  switch (op.kind) {
    case Kind::kInc:
      if (n.increment().busy()) break;
      begun = n.increment().begin(
          [this, node, idx, now, &sched](std::optional<counter::Counter> got) {
            sched.schedule_after(0, [this, node, idx, now, got] {
              ops_[idx].ok_begin = now;
              complete(node, idx, got.has_value(),
                       got ? *got : counter::Counter{});
            });
          });
      break;
    case Kind::kWrite: {
      wire::Bytes payload(8);
      for (int i = 0; i < 8; ++i) {
        payload[i] = static_cast<std::uint8_t>(idx >> (8 * i));
      }
      begun = n.registers().write(
          op.reg, std::move(payload),
          [this, node, idx, now, &sched](bool ok, counter::Counter tag) {
            sched.schedule_after(0, [this, node, idx, now, ok, tag] {
              ops_[idx].ok_begin = now;
              complete(node, idx, ok, tag);
            });
          });
      break;
    }
    case Kind::kRead:
      begun = n.registers().read(
          op.reg, [this, node, idx, now, &sched](
                      bool ok, const wire::Bytes&, counter::Counter tag) {
            sched.schedule_after(0, [this, node, idx, now, ok, tag] {
              ops_[idx].ok_begin = now;
              complete(node, idx, ok, tag);
            });
          });
      break;
  }
  if (tracer_) tracer_->aggregate("client.call", wall_ns() - t0);
  if (!begun) {
    busy_[node] = false;
    retry_later(node);
  }
}

void OpDriver::retry_later(NodeId node) {
  c_.world().scheduler().schedule_after(kRetry, [this, node] { pump(node); });
}

void OpDriver::complete(NodeId node, std::size_t idx, bool ok,
                        const counter::Counter& tag) {
  busy_[node] = false;
  Op& op = ops_[idx];
  if (!ok) {
    retry_later(node);
    return;
  }
  op.ok = true;
  op.finished = true;
  op.done = c_.now();
  op.tag = tag;
  fifo_[node].pop_front();
  if (tracer_) {
    const std::uint64_t w = wall_ns();
    static constexpr const char* kNames[] = {"op.inc", "op.write", "op.read"};
    const std::uint64_t root = tracer_->add(
        {kNames[static_cast<int>(op.kind)], 0, 0, node, op.wall_due, w,
         op.due, op.done});
    tracer_->add({"op.queue", 0, root, node, op.wall_due, op.wall_begin,
                  op.due, op.begin});
    tracer_->add({"op.service", 0, root, node, op.wall_begin, w, op.begin,
                  op.done});
  }
  pump(node);
}

std::string OpDriver::check(scenario::InvariantRegistry& reg) const {
  struct Write {
    SimTime done;
    counter::Counter tag;
  };
  std::map<std::string, std::vector<Write>> writes;
  for (const Op& op : ops_) {
    if (!op.ok) continue;
    if (op.kind == Kind::kInc) {
      reg.counter_order().record(op.ok_begin, op.done, op.tag);
    } else if (op.kind == Kind::kWrite) {
      writes[op.reg].push_back({op.done, op.tag});
    }
  }
  for (auto& [name, ws] : writes) {
    (void)name;
    std::sort(ws.begin(), ws.end(),
              [](const Write& a, const Write& b) { return a.done < b.done; });
    // Prefix maxima: ws[i].tag becomes the newest tag completed by ws[i].done.
    for (std::size_t i = 1; i < ws.size(); ++i) {
      if (counter::Counter::ct_less(ws[i].tag, ws[i - 1].tag)) {
        ws[i].tag = ws[i - 1].tag;
      }
    }
  }
  std::size_t stale = 0;
  for (const Op& op : ops_) {
    if (!op.ok || op.kind != Kind::kRead) continue;
    auto it = writes.find(op.reg);
    if (it == writes.end()) continue;
    const auto& ws = it->second;
    // Newest write that completed before this read's successful attempt.
    auto pos = std::lower_bound(
        ws.begin(), ws.end(), op.ok_begin,
        [](const Write& w, SimTime t) { return w.done < t; });
    if (pos == ws.begin()) continue;
    if (counter::Counter::ct_less(op.tag, std::prev(pos)->tag)) ++stale;
  }
  if (stale != 0) {
    return std::to_string(stale) +
           " register reads returned a tag older than a completed write";
  }
  return "";
}

// -- Traced-run instruments ---------------------------------------------------

void tap_rx(Cluster& c, RxTap& tap) {
  harness::World& w = c.world();
  tap.last_round.clear();  // times of an earlier cluster mean nothing here
  for (NodeId id : w.alive()) {
    node::Node& n = w.node(id);
    w.network().detach(id);
    // Same body as the handler Node::start() installs, observed.
    w.network().attach(id, [&tap, &n, &w](const net::Packet& pkt) {
      const dlink::TokenLink* link = n.mux().link(pkt.src);
      const std::uint64_t rounds = link ? link->stats().rounds_completed : 0;
      const std::uint64_t t0 = tap.tracer ? wall_ns() : 0;
      if (!n.crashed()) n.mux().handle_packet(pkt);
      const std::uint64_t ns = tap.tracer ? wall_ns() - t0 : 0;
      const SimTime now = w.scheduler().now();
      if (link && link->stats().rounds_completed != rounds) {
        auto [it, first] = tap.last_round.try_emplace({n.id(), pkt.src}, now);
        if (!first) {
          tap.round_us.push_back(static_cast<std::uint32_t>(now - it->second));
          it->second = now;
        }
      }
      if (!tap.tracer) return;
      tap.ns += ns;
      tap.bytes += pkt.payload.size();
      if (tap.packets++ % kSampleEvery == 0) {
        tap.tracer->add({"dlink.rx", 0, 0, n.id(), t0, t0 + ns, now, now});
        if (tap.sample.size() < kSampleCap) tap.sample.push_back(pkt.payload);
      }
    });
  }
}

TickCosts time_ticks(Cluster& c, int reps) {
  TickCosts out;
  harness::World& w = c.world();
  const IdSet alive = w.alive();
  const double per =
      static_cast<double>(reps) * static_cast<double>(alive.size());
  auto time = [&](auto&& body) {
    std::uint64_t ns = 0;
    for (NodeId id : alive) {
      node::Node& n = w.node(id);
      const std::uint64_t t0 = wall_ns();
      for (int i = 0; i < reps; ++i) body(n);
      ns += wall_ns() - t0;
    }
    return static_cast<double>(ns) / per;
  };
  std::size_t sink = 0;
  out.recsa = time([](node::Node& n) { n.recsa().tick(); });
  out.recma = time([](node::Node& n) { n.recma().tick(); });
  out.join = time([](node::Node& n) { n.joiner().tick(); });
  out.label = time([](node::Node& n) { n.labeling().tick(); });
  out.counter = time([](node::Node& n) { n.counters().tick(); });
  out.inc = time([](node::Node& n) { n.increment().tick(); });
  if (c.vs()) out.vs = time([](node::Node& n) { n.vs()->tick(); });
  out.shmem = time([](node::Node& n) { n.registers().tick(); });
  out.fd_trusted = time([&sink](node::Node& n) {
    sink += n.failure_detector().trusted().size();
  });
  const std::uint64_t t0 = wall_ns();
  for (int i = 0; i < reps; ++i) sink += w.converged() ? 1 : 0;
  out.converged = static_cast<double>(wall_ns() - t0) / reps;
  if (sink == 0) std::fprintf(stderr, "(empty trusted sets)\n");
  return out;
}

ReplayCosts replay(const std::vector<wire::Bytes>& packets,
                   const net::ChannelConfig& cfg) {
  ReplayCosts out;
  if (packets.empty()) return out;
  std::vector<dlink::BundleItem> scratch;
  std::size_t items = 0;
  constexpr int kPasses = 8;
  const std::uint64_t t0 = wall_ns();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const wire::Bytes& raw : packets) {
      auto f = dlink::Frame::decode(raw);
      if (f && f->kind == dlink::FrameKind::kData &&
          dlink::decode_bundle(f->payload, scratch)) {
        items += scratch.size();
      }
    }
  }
  out.frame_decode_ns = static_cast<double>(wall_ns() - t0) /
                        (kPasses * static_cast<double>(packets.size()));

  sim::Scheduler sched;
  std::uint64_t delivered = 0;
  net::Channel ch(sched, Rng(0xC4A77E1ULL), cfg, 1, 2,
                  [&delivered](net::Packet&) { ++delivered; });
  std::uint64_t ns = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const wire::Bytes& raw : packets) {
      wire::Bytes buf = wire::BufferPool::local().acquire();
      buf.assign(raw.begin(), raw.end());
      const std::uint64_t s = wall_ns();
      ch.send(std::move(buf));
      sched.run_for(cfg.max_delay + 1);
      ns += wall_ns() - s;
    }
  }
  out.channel_send_ns =
      static_cast<double>(ns) / (kPasses * static_cast<double>(packets.size()));
  if (items == 0 && delivered == 0) {
    std::fprintf(stderr, "(replay decoded nothing)\n");
  }
  return out;
}

}  // namespace ssr::bench
