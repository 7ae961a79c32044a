#include "scenario/backend.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace ssr::scenario {
namespace {

void head_line(std::ostream& os, const ScenarioResult& r) {
  os << r.name << " seed=" << r.seed << " " << (r.ok ? "OK" : "FAIL")
     << " events=" << r.trace_events << " hash=" << std::hex << r.trace_hash
     << std::dec << " sim=" << r.sim_time / kSec << "s";
  if (r.ops_completed > 0) {
    os << " ops=" << r.ops_completed << " p50=" << r.op_p50_us << "us"
       << " p99=" << r.op_p99_us << "us";
  }
  if (r.ops_attempted > 0) {
    os << " keyed="
       << r.ops_attempted - r.ops_aborted_faulted - r.ops_aborted_healthy
       << "/" << r.ops_attempted;
    if (r.ops_aborted_faulted != 0 || r.ops_aborted_healthy != 0) {
      os << " aborted(faulted=" << r.ops_aborted_faulted
         << " healthy=" << r.ops_aborted_healthy << ")";
    }
    if (r.ops_redirected != 0) os << " redirects=" << r.ops_redirected;
  }
  if (r.net_syscalls > 0) {
    os << " syscalls=" << r.net_syscalls << " batched=" << r.net_batched;
  }
  if (!r.failure.empty()) os << " failure=\"" << r.failure << "\"";
}

}  // namespace

std::string ScenarioResult::summary() const {
  std::ostringstream os;
  head_line(os, *this);
  for (const auto& v : violations) {
    os << "\n  violation[" << v.invariant << "]: " << v.message;
  }
  for (const ScenarioResult& f : fleets) {
    os << "\n  ";
    head_line(os, f);
  }
  return os.str();
}

void ScenarioResult::fold_fleets() {
  trace_hash = TraceRecorder::kFnvBasis;
  for (const ScenarioResult& f : fleets) {
    trace_hash = TraceRecorder::mix(trace_hash, f.trace_hash);
    trace_events += f.trace_events;
    sim_time = std::max(sim_time, f.sim_time);
    sched_events += f.sched_events;
    packets_sent += f.packets_sent;
    packets_delivered += f.packets_delivered;
    net_syscalls += f.net_syscalls;
    net_batched += f.net_batched;
    op_latency.merge(f.op_latency);
    for (const auto& v : f.violations) {
      violations.push_back({v.invariant, f.name + ": " + v.message});
    }
  }
  ops_completed = op_latency.count();
  op_p50_us = op_latency.percentile(50);
  op_p99_us = op_latency.percentile(99);
}

KeyedWorkload::KeyedWorkload(std::uint32_t map_shards,
                             std::uint32_t fleet_count)
    : router_(shard::ShardMap::uniform(map_shards)),
      fleet_count_(fleet_count) {
  SSR_ASSERT(map_shards <= fleet_count, "initial map wider than the fleets");
}

bool KeyedWorkload::queue_growth() {
  // A queued growth adds one shard however many grow_maps precede its
  // adoption, so the map spans every fleet once its current width does.
  if (router_.map().shard_count() >= fleet_count_) return false;
  growth_queued_ = true;
  return true;
}

void KeyedWorkload::run(const Action& a, const Fleets& fleets) {
  for (std::uint64_t i = 0; i < a.n && !fleets.failed(); ++i) {
    shard::Router::Op op = router_.begin(a.reg + ":" + std::to_string(i));
    bool completed = false;
    for (;;) {
      router_.note_config(op.shard, fleets.membership(op.shard));
      const auto target = router_.target(op);
      if (target && fleets.attempt(op.shard, *target)) {
        completed = true;
        break;
      }
      if (fleets.failed()) break;
      // A failed attempt is when a queued epoch change becomes visible —
      // exactly the moment a real client would learn its map is stale.
      adopt_queued_growth();
      const shard::Router::Verdict v = router_.on_failure(op);
      if (v == shard::Router::Verdict::kGiveUp) break;
      if (v == shard::Router::Verdict::kRedirect) ++redirected_;
    }
    ++attempted_;
    if (completed) continue;
    if (fleets.stalled(op.shard)) {
      ++aborted_faulted_;
    } else {
      ++aborted_healthy_;
    }
  }
  // No attempt failed, so nothing pulled the queued map in: adopt it now
  // rather than letting it leak past the workload it was aimed at.
  adopt_queued_growth();
}

void KeyedWorkload::adopt_queued_growth() {
  if (!growth_queued_) return;
  growth_queued_ = false;
  router_.adopt(router_.map().with_shard_added());
}

void KeyedWorkload::report(ScenarioResult& r) const {
  r.ops_attempted = attempted_;
  r.ops_aborted_faulted = aborted_faulted_;
  r.ops_aborted_healthy = aborted_healthy_;
  r.ops_redirected = redirected_;
  // The cross-fleet isolation invariant: an op may give up only when its
  // own fleet was faulted.
  if (aborted_healthy_ == 0) return;
  r.ok = false;
  if (r.failure.empty()) {
    r.failure = std::to_string(aborted_healthy_) +
                " op(s) aborted on healthy shards (isolation violated)";
  }
}

}  // namespace ssr::scenario
