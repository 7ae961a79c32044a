#include "sim/scheduler.hpp"

#include <bit>

#include "util/assert.hpp"

namespace ssr::sim {

void Scheduler::reserve(std::size_t events) {
  slots_.reserve(events);
  nodes_.reserve(events);
}

std::uint32_t Scheduler::alloc_slot() {
  if (free_head_ != kNone) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNone;
    return slot;
  }
  // ssr-lint: allow(hot-path-alloc): slab growth, bounded by the peak live-event population.
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // Bumping the generation retires every outstanding {slot, gen} handle and
  // turns the slot's queue entry into a tombstone in one store.
  ++s.gen;
  s.kind = Kind::kFree;
  s.sink = nullptr;
  if (s.payload.capacity() != 0) {
    pool_.release(std::move(s.payload));
    s.payload = wire::Bytes();
  }
  if (s.fn) s.fn = nullptr;
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

void Scheduler::heap_push(const HeapEntry& e) {
  std::size_t i = overflow_.size();
  // ssr-lint: allow(hot-path-alloc): overflow heap growth, capacity sticks
  // across laps; only events due beyond the horizon land here.
  overflow_.resize(i + 1);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!earlier(e, overflow_[parent])) break;
    overflow_[i] = overflow_[parent];  // move the hole up
    i = parent;
  }
  overflow_[i] = e;
}

void Scheduler::heap_pop() {
  const HeapEntry last = overflow_.back();
  overflow_.pop_back();
  const std::size_t n = overflow_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t m = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(overflow_[c], overflow_[m])) m = c;
    }
    if (!earlier(overflow_[m], last)) break;
    overflow_[i] = overflow_[m];  // move the hole down
    i = m;
  }
  overflow_[i] = last;
}

void Scheduler::wheel_push(SimTime when, std::uint32_t slot,
                           std::uint32_t gen) {
  std::uint32_t i = free_node_;
  if (i != kNone) {
    free_node_ = nodes_[i].next;
    nodes_[i] = BucketNode{slot, gen, kNone};
  } else {
    i = static_cast<std::uint32_t>(nodes_.size());
    // ssr-lint: allow(hot-path-alloc): node-pool growth, bounded by the
    // peak wheel population.
    nodes_.push_back(BucketNode{slot, gen, kNone});
  }
  const auto b = static_cast<std::uint32_t>(when & kMask);
  Bucket& bucket = buckets_[b];
  if (bucket.tail == kNone) {
    bucket.head = i;
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
  } else {
    nodes_[bucket.tail].next = i;
  }
  bucket.tail = i;
  ++wheel_entries_;
}

std::uint32_t Scheduler::next_bucket() const {
  const auto from = static_cast<std::uint32_t>(now_ & kMask);
  std::uint32_t w = from >> 6;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (from & 63));
  // Terminates on a non-empty wheel; after a full lap the unmasked word
  // covers the buckets just before now's (times near now + kHorizon).
  while (bits == 0) {
    w = (w + 1) % occupied_.size();
    bits = occupied_[w];
  }
  return (w << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
}

Scheduler::BucketNode Scheduler::pop_bucket(std::uint32_t b) {
  Bucket& bucket = buckets_[b];
  const std::uint32_t i = bucket.head;
  const BucketNode node = nodes_[i];
  bucket.head = node.next;
  if (bucket.head == kNone) {
    bucket.tail = kNone;
    occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  }
  nodes_[i].next = free_node_;
  free_node_ = i;
  --wheel_entries_;
  return node;
}

void Scheduler::advance_to(SimTime t) {
  now_ = t;
  // Every overflow event is due at or after t (the wheel's earliest bucket
  // or the overflow top bounds t), so the subtraction cannot wrap. Events
  // land only in buckets the advance just drained, ahead of any direct push
  // at their time.
  while (!overflow_.empty() && overflow_.front().when - t < kHorizon) {
    const HeapEntry e = overflow_.front();
    heap_pop();
    if (live(e.slot, e.gen)) wheel_push(e.when, e.slot, e.gen);
  }
}

Scheduler::Handle Scheduler::push_event(SimTime when, std::uint32_t slot) {
  const std::uint32_t gen = slots_[slot].gen;
  ++live_;
  if (when - now_ < kHorizon) {
    wheel_push(when, slot, gen);
  } else {
    heap_push(HeapEntry{when, next_seq_++, slot, gen});
  }
  return Handle(this, slot, gen);
}

Scheduler::Handle Scheduler::schedule_after(SimTime delay, Action action) {
  return schedule_at(now_ + delay, std::move(action));
}

Scheduler::Handle Scheduler::schedule_at(SimTime when, Action action) {
  SSR_ASSERT(when >= now_, "cannot schedule into the past");
  const std::uint32_t slot = alloc_slot();
  Slot& s = slots_[slot];
  s.kind = Kind::kClosure;
  s.fn = std::move(action);
  return push_event(when, slot);
}

Scheduler::Handle Scheduler::schedule_packet_after(SimTime delay,
                                                   PacketSink* sink,
                                                   wire::Bytes payload) {
  const std::uint32_t slot = alloc_slot();
  Slot& s = slots_[slot];
  s.kind = Kind::kPacket;
  s.sink = sink;
  s.payload = std::move(payload);
  return push_event(now_ + delay, slot);
}

void Scheduler::cancel_event(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= slots_.size() || slots_[slot].gen != gen) return;  // stale
  free_slot(slot);
}

bool Scheduler::event_pending(std::uint32_t slot, std::uint32_t gen) const {
  return slot < slots_.size() && slots_[slot].gen == gen;
}

void Scheduler::execute(std::uint32_t slot) {
  ++executed_;
  Slot& s = slots_[slot];
  // Move the work out and free the slot *before* executing: while the
  // action runs its own handle is no longer pending, and rescheduling may
  // reuse the slot safely.
  if (s.kind == Kind::kPacket) {
    PacketSink* sink = s.sink;
    wire::Bytes payload = std::move(s.payload);
    s.payload = wire::Bytes();
    free_slot(slot);
    sink->deliver_packet(std::move(payload));
  } else {
    Action fn = std::move(s.fn);
    s.fn = nullptr;
    free_slot(slot);
    fn();
  }
}

bool Scheduler::step(SimTime deadline) {
  for (;;) {
    if (wheel_entries_ == 0) {
      // Only far events remain. Drop cancelled ones off the top first, so
      // `now` never advances to the time of an event that does not run.
      while (!overflow_.empty() &&
             !live(overflow_.front().slot, overflow_.front().gen)) {
        heap_pop();
      }
      if (overflow_.empty() || overflow_.front().when > deadline) return false;
      advance_to(overflow_.front().when);  // brings the top into the wheel
      continue;
    }
    const std::uint32_t b = next_bucket();
    const SimTime when = now_ + ((b - now_) & kMask);
    if (when > deadline) return false;
    const BucketNode node = pop_bucket(b);
    if (!live(node.slot, node.gen)) continue;  // cancelled
    if (when != now_) advance_to(when);
    execute(node.slot);
    return true;
  }
}

std::uint64_t Scheduler::run_until(SimTime deadline) {
  std::uint64_t n = 0;
  while (step(deadline)) ++n;
  if (now_ < deadline) advance_to(deadline);
  return n;
}

}  // namespace ssr::sim
