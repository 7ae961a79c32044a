#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ssr::sim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 100u);
}

TEST(Scheduler, FifoTieBreakAtEqualTimes) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  s.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  SimTime fired_at = 0;
  s.schedule_at(50, [&] {
    s.schedule_after(25, [&] { fired_at = s.now(); });
  });
  s.run_until(1000);
  EXPECT_EQ(fired_at, 75u);
}

TEST(Scheduler, DeadlineStopsExecution) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(10, [&] { ++fired; });
  s.schedule_at(200, [&] { ++fired; });
  s.run_until(100);
  EXPECT_EQ(fired, 1);
  s.run_until(300);
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, CancelledEventsDoNotRun) {
  Scheduler s;
  int fired = 0;
  auto h = s.schedule_at(10, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run_until(100);
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 10) s.schedule_after(5, step);
  };
  s.schedule_at(0, step);
  s.run_until(1000);
  EXPECT_EQ(chain, 10);
  EXPECT_EQ(s.events_executed(), 10u);
}

TEST(Scheduler, StepExecutesOneEvent) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1, [&] { ++fired; });
  s.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(s.step(100));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step(100));
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(s.step(100));
}

// Quiescence detection must see through tombstones: a queue holding only
// cancelled events is empty (the silence invariant of the scenario engine
// relies on this after crashing every node).
TEST(Scheduler, EmptyIgnoresTombstonedEvents) {
  Scheduler s;
  EXPECT_TRUE(s.empty());
  auto a = s.schedule_at(10, [] {});
  auto b = s.schedule_at(20, [] {});
  EXPECT_FALSE(s.empty());
  a.cancel();
  b.cancel();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Scheduler, EmptyFalseWhileLiveEventBehindTombstones) {
  Scheduler s;
  auto a = s.schedule_at(5, [] {});
  int fired = 0;
  s.schedule_at(30, [&] { ++fired; });
  a.cancel();
  EXPECT_FALSE(s.empty());  // the live event at 30 still counts
  s.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, HandleOutlivingSchedulerEventIsSafe) {
  Scheduler s;
  Scheduler::Handle h;
  {
    h = s.schedule_at(5, [] {});
  }
  s.run_until(10);
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op, must not crash
}

// --- {slot, generation} handle scheme ---------------------------------------

// Cancelling after the event fired must be a no-op even when the slot has
// been reused by a *new* live event: the stale generation must not kill the
// newcomer.
TEST(Scheduler, CancelAfterFireDoesNotKillSlotReuse) {
  Scheduler s;
  int first = 0;
  auto h1 = s.schedule_at(5, [&] { ++first; });
  s.run_until(10);
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(h1.pending());
  // The freed slot is at the head of the freelist: the next event reuses it.
  int second = 0;
  auto h2 = s.schedule_at(20, [&] { ++second; });
  EXPECT_EQ(h2.slot(), h1.slot());  // reuse confirmed
  EXPECT_NE(h2.generation(), h1.generation());
  h1.cancel();  // stale generation — must not cancel the new event
  EXPECT_TRUE(h2.pending());
  s.run_until(30);
  EXPECT_EQ(second, 1);
}

TEST(Scheduler, DoubleCancelIsIdempotentAcrossSlotReuse) {
  Scheduler s;
  int fired = 0;
  auto h1 = s.schedule_at(10, [&] { ++fired; });
  h1.cancel();
  h1.cancel();  // second cancel: no-op, must not double-free the slot
  auto h2 = s.schedule_at(15, [&] { ++fired; });
  EXPECT_EQ(h2.slot(), h1.slot());
  h1.cancel();  // still stale — the reused slot stays live
  EXPECT_TRUE(h2.pending());
  s.run_until(100);
  EXPECT_EQ(fired, 1);
}

// A handle that outlives several reuse laps of its slot keeps reading as
// not-pending (generation mismatch), never as the current occupant.
TEST(Scheduler, StaleHandleSurvivesManyReuseLaps) {
  Scheduler s;
  auto stale = s.schedule_at(1, [] {});
  s.run_until(2);
  for (int lap = 0; lap < 100; ++lap) {
    auto h = s.schedule_after(1, [] {});
    EXPECT_FALSE(stale.pending());
    if (lap % 2 == 0) h.cancel();
    s.run_for(2);
  }
  EXPECT_FALSE(stale.pending());
  stale.cancel();
  EXPECT_TRUE(s.empty());
}

// Slot reuse keeps the slab bounded by the peak live population, not by
// traffic volume: a send/deliver loop must not grow the slab.
TEST(Scheduler, SlabBoundedByPeakLiveEvents) {
  Scheduler s;
  for (int i = 0; i < 1000; ++i) {
    s.schedule_after(1, [] {});
    s.run_for(2);
  }
  EXPECT_LE(s.slots_total(), 4u);
  EXPECT_EQ(s.live_events(), 0u);
}

// Typed packet events interleave with closure events in exact (when, seq)
// order — the fast path must not reorder against the general path.
TEST(Scheduler, PacketEventsInterleaveWithClosuresInSeqOrder) {
  struct Recorder final : PacketSink {
    std::vector<int>* order;
    void deliver_packet(wire::Bytes&& payload) override {
      order->push_back(static_cast<int>(payload[0]));
      wire::BufferPool::local().release(std::move(payload));
    }
  };
  Scheduler s;
  std::vector<int> order;
  Recorder sink;
  sink.order = &order;
  s.schedule_packet_after(7, &sink, wire::Bytes{1});
  s.schedule_at(7, [&] { order.push_back(2); });
  s.schedule_packet_after(7, &sink, wire::Bytes{3});
  s.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Scheduler, CancelledPacketEventDoesNotDeliver) {
  struct Counter final : PacketSink {
    int delivered = 0;
    void deliver_packet(wire::Bytes&& payload) override {
      ++delivered;
      wire::BufferPool::local().release(std::move(payload));
    }
  };
  Scheduler s;
  Counter sink;
  auto h = s.schedule_packet_after(5, &sink, wire::Bytes{42});
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(s.empty());  // tombstone only — quiescence is exact
  s.run_until(100);
  EXPECT_EQ(sink.delivered, 0);
}

// Events scheduled from inside an executing event run at their proper times
// and orders.
TEST(Scheduler, EventsStagedDuringStepRunInOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(10, [&] {
    order.push_back(0);
    s.schedule_after(0, [&] { order.push_back(1); });  // same time, later seq
    s.schedule_after(5, [&] { order.push_back(3); });
    s.schedule_after(1, [&] { order.push_back(2); });
  });
  s.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Cancelling an event scheduled by the currently executing event must work
// like any other cancel.
TEST(Scheduler, CancelOfStagedEventHolds) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(10, [&] {
    auto h = s.schedule_after(5, [&] { ++fired; });
    h.cancel();
  });
  s.run_until(100);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(s.empty());
}

// --- Timing wheel and its overflow tier ------------------------------------

constexpr SimTime kH = Scheduler::kHorizon;

// An event beyond the horizon waits in the overflow tier. When `now`
// reaches within a horizon of it, it must enter its bucket before the event
// at the new time runs: a push from inside that event to the same `when`
// comes later in seq order and must run later.
TEST(Scheduler, FarEventAndLaterDirectPushAtSameWhenRunInSeqOrder) {
  Scheduler s;
  std::vector<int> order;
  const SimTime t = kH + 100;
  s.schedule_at(t, [&] { order.push_back(1); });  // overflow: t - 0 >= kH
  s.schedule_at(200, [&] {
    // now = 200, so t is within the horizon: a direct bucket push.
    s.schedule_at(t, [&] { order.push_back(2); });
  });
  // The same after an advance by run_until instead of by an event.
  s.schedule_at(3 * kH, [&] { order.push_back(3); });
  s.run_until(2 * kH + 1);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  s.schedule_at(3 * kH, [&] { order.push_back(4); });
  s.run_until(4 * kH);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(s.events_executed(), 5u);
}

// A cancelled far event frees its slot at once. The slot's next occupant
// must never run in place of the stale overflow entry when that entry
// reaches the wheel: it runs once, at its own time.
TEST(Scheduler,
     CancelledFarEventSlotReusedBeforeMigrationNeverFiresNewOccupant) {
  Scheduler s;
  std::vector<SimTime> fired;
  auto far = s.schedule_at(2 * kH, [&] { fired.push_back(0); });
  far.cancel();
  auto reuse = s.schedule_at(3 * kH, [&] { fired.push_back(s.now()); });
  EXPECT_EQ(reuse.slot(), far.slot());
  EXPECT_FALSE(far.pending());
  EXPECT_TRUE(reuse.pending());
  // A live event ahead of both: running it advances `now` to where the
  // stale entry must move into the wheel, and drop, while it is not the
  // queue's front.
  int carrier = 0;
  s.schedule_at(kH + 5, [&] { ++carrier; });
  s.run_until(2 * kH + 1);
  EXPECT_EQ(carrier, 1);
  EXPECT_TRUE(fired.empty());
  EXPECT_TRUE(reuse.pending());
  s.run_until(4 * kH);
  EXPECT_EQ(fired, (std::vector<SimTime>{3 * kH}));
  EXPECT_TRUE(s.empty());
}

// Reference model: a std::map keyed by (when, seq) is the specification of
// the execution order. Seeded random programs drive the scheduler and the
// model in lockstep and compare every observable after every operation.
class WheelVsModel {
 public:
  explicit WheelVsModel(std::uint64_t seed) : seed_(seed), rng_(seed) {
    sink_.h = this;
  }

  void run(int ops) {
    for (int i = 0; i < ops; ++i) {
      const std::uint64_t op = rng_.next_below(10);
      if (op < 5) {
        schedule(rng_.next_below(3), delay(rng_));
      } else if (op < 7) {
        cancel(rng_.next_u64());
      } else if (op < 9) {
        const SimTime deadline = s_.now() + rng_.next_below(3 * kH);
        const bool ran = s_.step(deadline);
        ASSERT_EQ(ran, model_step(deadline)) << where();
      } else {
        const SimTime deadline = s_.now() + rng_.next_below(4 * kH);
        const std::uint64_t n = s_.run_until(deadline);
        ASSERT_EQ(n, model_run_until(deadline)) << where();
      }
      compare();
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Drain: events spawn fewer than one child on average, so the
    // population dies out and everything left runs, in order.
    for (int lap = 0; lap < 1000 && !s_.empty(); ++lap) {
      const SimTime end = s_.now() + 4 * kH;
      ASSERT_EQ(s_.run_until(end), model_run_until(end)) << where();
      compare();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(s_.empty()) << where();
  }

 private:
  struct Sink final : PacketSink {
    WheelVsModel* h = nullptr;
    void deliver_packet(wire::Bytes&& payload) override {
      int id = 0;
      for (int i = 0; i < 4; ++i) id |= payload[i] << (8 * i);
      wire::BufferPool::local().release(std::move(payload));
      h->fire_real(id);
    }
  };

  // Delays around the horizon's edges, far beyond it, and short ones.
  static SimTime delay(Rng& r) {
    switch (r.next_below(7)) {
      case 0:
        return 0;
      case 1:
        return kH - 1;
      case 2:
        return kH;
      case 3:
        return kH + 1;
      case 4:
        return r.next_below(3 * kH + 1);
      default:
        return r.next_below(40);
    }
  }

  // Top-level schedule: both sides get the same id and time.
  void schedule(std::uint64_t how, SimTime d) {
    schedule_real(how, d);
    model_schedule(model_next_id_++, m_now_ + d);
  }

  void schedule_real(std::uint64_t how, SimTime d) {
    const int id = real_next_id_++;
    Scheduler::Handle h;
    if (how == 0) {
      h = s_.schedule_at(s_.now() + d, [this, id] { fire_real(id); });
    } else if (how == 1) {
      h = s_.schedule_after(d, [this, id] { fire_real(id); });
    } else {
      wire::Bytes payload(4);
      for (int i = 0; i < 4; ++i) {
        payload[i] = static_cast<std::uint8_t>(id >> (8 * i));
      }
      h = s_.schedule_packet_after(d, &sink_, std::move(payload));
    }
    handles_.push_back(h);
  }

  // One of the `created` ids handed out so far, fired and cancelled ones
  // included.
  static int pick(std::uint64_t r, int created) {
    return static_cast<int>(r % static_cast<std::uint64_t>(created));
  }

  void cancel(std::uint64_t r) {
    if (real_next_id_ == 0) return;
    const int id = pick(r, real_next_id_);
    handles_[id].cancel();
    model_cancel(id);
  }

  // What an event does when it runs, derived from (seed, id) alone so that
  // both sides act identically as long as their orders agree: record
  // itself, schedule up to two more events, and sometimes cancel one.
  struct Script {
    int children = 0;
    std::uint64_t how[2] = {0, 0};
    SimTime delay[2] = {0, 0};
    bool cancels = false;
    std::uint64_t cancel_pick = 0;
  };
  Script script(int id) const {
    Rng r(seed_ * 1000003u + static_cast<std::uint64_t>(id));
    Script sc;
    const std::uint64_t kids = r.next_below(4);  // 0, 0, 1 or 2 children
    sc.children = kids < 2 ? 0 : static_cast<int>(kids - 1);
    for (int c = 0; c < 2; ++c) {
      sc.how[c] = r.next_below(3);
      sc.delay[c] = delay(r);
    }
    sc.cancels = r.chance(0.4);
    sc.cancel_pick = r.next_u64();
    return sc;
  }

  void fire_real(int id) {
    real_order_.emplace_back(id, s_.now());
    const Script sc = script(id);
    for (int c = 0; c < sc.children; ++c) schedule_real(sc.how[c], sc.delay[c]);
    if (sc.cancels) handles_[pick(sc.cancel_pick, real_next_id_)].cancel();
  }

  void fire_model(int id) {
    model_order_.emplace_back(id, m_now_);
    const Script sc = script(id);
    for (int c = 0; c < sc.children; ++c) {
      model_schedule(model_next_id_++, m_now_ + sc.delay[c]);
    }
    if (sc.cancels) model_cancel(pick(sc.cancel_pick, model_next_id_));
  }

  void model_schedule(int id, SimTime when) {
    const Key k{when, m_seq_++};
    queue_[k] = id;
    key_of_[id] = k;
  }
  void model_cancel(int id) {
    auto it = key_of_.find(id);
    if (it == key_of_.end()) return;
    queue_.erase(it->second);
    key_of_.erase(it);
  }
  bool model_step(SimTime deadline) {
    if (queue_.empty() || queue_.begin()->first.first > deadline) return false;
    const auto [k, id] = *queue_.begin();
    queue_.erase(queue_.begin());
    key_of_.erase(id);
    m_now_ = k.first;
    ++m_executed_;
    fire_model(id);
    return true;
  }
  std::uint64_t model_run_until(SimTime deadline) {
    std::uint64_t n = 0;
    while (model_step(deadline)) ++n;
    if (m_now_ < deadline) m_now_ = deadline;
    return n;
  }

  void compare() {
    ASSERT_EQ(real_order_, model_order_) << where();
    ASSERT_EQ(s_.now(), m_now_) << where();
    ASSERT_EQ(s_.events_executed(), m_executed_) << where();
    ASSERT_EQ(s_.live_events(), queue_.size()) << where();
    ASSERT_EQ(s_.empty(), queue_.empty()) << where();
    ASSERT_EQ(real_next_id_, model_next_id_) << where();
    for (int id = 0; id < real_next_id_; ++id) {
      ASSERT_EQ(handles_[id].pending(), key_of_.count(id) == 1)
          << where() << " id=" << id;
    }
  }

  std::string where() const {
    return "seed=" + std::to_string(seed_) +
           " executed=" + std::to_string(m_executed_);
  }

  using Key = std::pair<SimTime, std::uint64_t>;

  std::uint64_t seed_;
  Rng rng_;
  Scheduler s_;
  Sink sink_;
  std::vector<Scheduler::Handle> handles_;
  std::vector<std::pair<int, SimTime>> real_order_;
  int real_next_id_ = 0;

  std::map<Key, int> queue_;
  std::map<int, Key> key_of_;
  std::vector<std::pair<int, SimTime>> model_order_;
  SimTime m_now_ = 0;
  std::uint64_t m_seq_ = 0;
  std::uint64_t m_executed_ = 0;
  int model_next_id_ = 0;
};

TEST(Scheduler, MatchesReferenceModelOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    WheelVsModel(seed).run(400);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ssr::sim
