#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/types.hpp"
#include "wire/wire.hpp"

namespace ssr::sim {

/// Destination of a typed packet event (the scheduler's fast path).
/// Channels implement this so steady-state packet traffic never builds a
/// closure: the event record is just {sink, pooled payload}.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  /// The scheduled packet came due. Called after the event's slot has been
  /// freed, so scheduling (even into the same slot) is safe from inside.
  /// The sink owns `payload` and is expected to release it back to
  /// wire::BufferPool::local() once the packet dies.
  virtual void deliver_packet(wire::Bytes&& payload) = 0;
};

/// Discrete-event scheduler implementing the paper's interleaving model
/// (Section 2): at most one step executes at any moment; a step is triggered
/// either by a packet arrival or by a periodic timer whose rate is unknown
/// to the algorithms. Virtual time is microseconds.
///
/// Events live in a slab of pooled slots addressed by {slot, generation}
/// handles and execute in (when, seq) order: by time, FIFO among equal
/// times, so every RNG draw follows one total order. The queue is a timing
/// wheel with one FIFO bucket per virtual µs over the next kHorizon µs,
/// which holds every packet, node tick and link retransmit the default
/// fabric schedules. Bucket entries are {slot, gen} nodes drawn from one
/// pooled array and linked per bucket; a 64-bit-word occupancy bitmap finds
/// the next non-empty bucket. Push and pop are O(1) and the steady state
/// performs zero heap allocations. Events due beyond the horizon wait in a
/// 4-ary min-heap keyed on (when, seq); each time `now` advances they move
/// into their buckets, in that order, before anything else can be
/// scheduled at their time, so a bucket stays in seq order. Cancellation is
/// O(1): a generation bump frees the slot for reuse at once, and the stale
/// bucket or heap entry is skipped when it surfaces.
class Scheduler {
 public:
  // ssr-lint: allow(hot-path-alloc): closure events are the cold path; packets ride PacketSink.
  using Action = std::function<void()>;

  /// Span of the timing wheel in virtual µs (a power of two). An event due
  /// less than kHorizon after `now` goes straight into its bucket; a later
  /// one waits in the overflow heap. The default fabric's delays stay below
  /// it: packets ≤ 2,000 µs, node ticks ≤ 1,875 µs, link retransmits
  /// ≤ 500 µs.
  static constexpr SimTime kHorizon = 2048;

  /// Handle used to cancel a scheduled event (e.g., timers of a crashed
  /// node). Cancellation and pending checks are O(1) generation compares;
  /// both are idempotent and safe after the event fired, was cancelled, or
  /// its slot was reused (the generation no longer matches). A handle must
  /// not outlive the scheduler it came from.
  class Handle {
   public:
    Handle() = default;
    void cancel() const {
      if (sched_ != nullptr) sched_->cancel_event(slot_, gen_);
    }
    bool pending() const {
      return sched_ != nullptr && sched_->event_pending(slot_, gen_);
    }
    /// Raw slot/generation pair, for transports that wrap scheduler events
    /// in their own handle type (see net::TimerHandle).
    std::uint32_t slot() const { return slot_; }
    std::uint32_t generation() const { return gen_; }

   private:
    friend class Scheduler;
    Handle(Scheduler* sched, std::uint32_t slot, std::uint32_t gen)
        : sched_(sched), slot_(slot), gen_(gen) {}
    Scheduler* sched_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
  };

  SimTime now() const { return now_; }

  /// Schedules `action` to run `delay` after the current time.
  Handle schedule_after(SimTime delay, Action action);
  /// Schedules `action` at absolute time `when` (>= now).
  Handle schedule_at(SimTime when, Action action);
  /// Fast path: schedules delivery of `payload` to `sink` without building
  /// a closure. Takes its place in the same (when, seq) order as
  /// schedule_after, so the two paths interleave exactly like two closure
  /// events would.
  Handle schedule_packet_after(SimTime delay, PacketSink* sink,
                               wire::Bytes payload);

  /// Runs events until the queue is empty or `deadline` is passed.
  /// Returns the number of events executed.
  std::uint64_t run_until(SimTime deadline);
  /// Runs for `duration` more virtual time.
  std::uint64_t run_for(SimTime duration) { return run_until(now_ + duration); }
  /// Executes exactly one event if any is pending before `deadline`.
  bool step(SimTime deadline);

  /// True when no *live* events remain: cancelled entries still queued do
  /// not count, so quiescence detection is exact.
  bool empty() const { return live_ == 0; }
  std::uint64_t events_executed() const { return executed_; }

  /// O(1) generation-compare primitives backing Handle and the transports'
  /// TimerHandle. Both are no-ops / false when the pair is stale.
  void cancel_event(std::uint32_t slot, std::uint32_t gen);
  bool event_pending(std::uint32_t slot, std::uint32_t gen) const;

  /// Pre-sizes the slab and the bucket-node pool (warm start for worlds
  /// that know their steady-state event population).
  void reserve(std::size_t events);

  /// Slab footprint: slots ever allocated (live + pooled). Bounded by the
  /// peak number of simultaneously pending events, not by traffic volume.
  std::size_t slots_total() const { return slots_.size(); }
  /// Currently scheduled (live) events.
  std::size_t live_events() const { return live_; }

 private:
  enum class Kind : std::uint8_t { kFree = 0, kClosure, kPacket };

  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  static constexpr SimTime kMask = kHorizon - 1;
  static_assert((kHorizon & kMask) == 0 && kHorizon % 64 == 0,
                "the wheel spans whole 64-bit bitmap words");

  /// Pooled event record. `gen` is bumped every time the slot is freed, so
  /// a {slot, gen} pair names one event incarnation forever.
  struct Slot {
    std::uint32_t gen = 0;
    Kind kind = Kind::kFree;
    std::uint32_t next_free = kNone;
    PacketSink* sink = nullptr;
    wire::Bytes payload;  // packet events (pooled)
    Action fn;            // closure events
  };

  /// A wheel entry, linked into its bucket's FIFO (or, once popped, into
  /// the node freelist). A stale {slot, gen} pair marks a cancelled event.
  struct BucketNode {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
    std::uint32_t next = kNone;
  };
  struct Bucket {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };

  /// Overflow-heap entry: the full ordering key is inline so sifts never
  /// touch the slab.
  struct HeapEntry {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  // 4-ary min-heap over overflow_ (root at 0, children of i at 4i+1..4i+4).
  // seq is unique, so the extraction order is the total order (when, seq)
  // whatever the heap's internal shape.
  void heap_push(const HeapEntry& e);
  void heap_pop();

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  bool live(std::uint32_t slot, std::uint32_t gen) const {
    return slots_[slot].gen == gen;
  }
  Handle push_event(SimTime when, std::uint32_t slot);

  /// Appends {slot, gen} to the bucket of `when` (now <= when < now+kHorizon).
  void wheel_push(SimTime when, std::uint32_t slot, std::uint32_t gen);
  /// The first non-empty bucket at or after now's, wrapping around: the
  /// wheel holds only times in [now, now + kHorizon), so it is the earliest.
  /// Requires a non-empty wheel.
  std::uint32_t next_bucket() const;
  /// Unlinks the head of bucket `b` and returns its node to the pool.
  BucketNode pop_bucket(std::uint32_t b);
  /// Sets now to `t` and moves every overflow event now due within the
  /// horizon into its bucket, in (when, seq) order; cancelled ones drop.
  void advance_to(SimTime t);
  /// Frees the slot and runs its action or delivers its packet.
  void execute(std::uint32_t slot);

  SimTime now_ = 0;
  /// The thread's buffer pool, resolved once (free_slot and the packet
  /// path hit it per event; the TLS lookup is not free at that rate).
  wire::BufferPool& pool_ = wire::BufferPool::local();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNone;
  std::array<Bucket, kHorizon> buckets_{};
  /// Bit b set: bucket b is non-empty.
  std::array<std::uint64_t, kHorizon / 64> occupied_{};
  /// Nodes linked into buckets, cancelled ones included.
  std::size_t wheel_entries_ = 0;
  std::vector<BucketNode> nodes_;
  std::uint32_t free_node_ = kNone;
  std::vector<HeapEntry> overflow_;  // 4-ary min-heap (heap_push/pop)
};

}  // namespace ssr::sim
