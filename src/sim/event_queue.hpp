// Discrete-event queue with deterministic tie-breaking.
//
// Events scheduled for the same instant fire in (tie, scheduling order):
// an explicit u32 tie key first, then FIFO by a monotonically increasing
// sequence number, so a seed plus a program fully determines a simulation
// run — a property every test in this repository leans on.
//
// The tie key serves the sharded engine's mapping independence: a network
// delivery carries its SOURCE node id, so same-instant arrivals at one node
// run in source order whichever path (direct schedule or mailbox drain)
// inserted them.  Local events keep tie 0 and run before any delivery.
//
// Steady-state scheduling is allocation-free: actions are move-only
// callables with inline storage (common::UniqueFunction) parked in a pooled
// slab of event nodes (free-list reuse), and the heap itself orders small
// POD entries {time, seq, slot} in a plain vector.
//
// Events can be cancelled (schedule() returns an EventId): the action is
// destroyed and its slab node recycled immediately; the heap entry is
// lazily skipped on pop, and the heap compacts itself when stale entries
// outnumber live ones.  Cancellation serves the few timers that usually
// lose their race: a hedge's losing branch, rmi::call's policy timers,
// fault appliers, and an idle retransmission class's event.
//
// A sequence number can be reserved ahead of its event
// (reserve_seq/schedule_reserved): the event then orders among same-instant
// events exactly as if it had been scheduled at reservation time.  A
// transport reserves one per transmission and keys its one retransmission
// event per timeout class with the head transmission's number, so every
// retransmission fires in the order a timer per transmission would have.
#pragma once

#include <cstdint>
#include <vector>

#include "common/function.hpp"
#include "common/time.hpp"

namespace mage::sim {

// Identifies one scheduled event for cancellation.
struct EventId {
  std::uint32_t slot = 0xFFFFFFFFu;
  std::uint64_t seq = 0;
};

class EventQueue {
 public:
  using Action = common::UniqueFunction<void()>;

  // Schedules `action` to fire at absolute simulated time `at`.  `tie`
  // orders same-instant events before the FIFO sequence number (see file
  // comment); network deliveries pass their source node id, everything
  // else 0.
  EventId schedule(common::SimTime at, Action&& action, std::uint32_t tie = 0);

  // Takes the sequence number the next schedule() would have used.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }
  // Schedules `action` under a sequence number from reserve_seq(), with
  // tie 0: it fires where an event scheduled at reservation time would.
  // Each reserved number keys at most one pending event.
  EventId schedule_reserved(common::SimTime at, std::uint64_t seq,
                            Action&& action);

  // Cancels a scheduled event; a no-op if it already fired (or was already
  // cancelled).  Returns true when the event was live.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  // Time of the earliest pending event; only valid when !empty().
  // Non-const: drops heap entries left behind by cancelled events.
  [[nodiscard]] common::SimTime next_time() {
    skip_stale();
    return heap_[0].at;
  }

  // Removes and returns the earliest pending event's action.
  [[nodiscard]] Action pop(common::SimTime& at);

  // Number of pooled event nodes currently allocated (grows to the peak
  // number of simultaneously pending events, then stays flat).
  [[nodiscard]] std::size_t pool_size() const { return slab_.size(); }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct HeapEntry {
    common::SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slab_
    std::uint32_t tie;   // same-instant priority (source node id; 0 local)

    [[nodiscard]] bool before(const HeapEntry& other) const {
      if (at != other.at) return at < other.at;
      if (tie != other.tie) return tie < other.tie;
      return seq < other.seq;
    }
  };

  struct Node {
    // Metadata first: the liveness check on pop touches only this line.
    std::uint64_t seq = 0;      // seq of the event occupying this slot
    std::uint32_t next_free = kNil;
    bool live = false;
    Action action;
  };
  static_assert(sizeof(Node) == 160,
                "an event node is 16 bytes of metadata and a 144-byte action");

  // True when the heap entry still refers to a live event (its slab node
  // has not been cancelled or recycled).
  [[nodiscard]] bool entry_live(const HeapEntry& e) const {
    const Node& node = slab_[e.slot];
    return node.live && node.seq == e.seq;
  }

  EventId insert(common::SimTime at, std::uint64_t seq, std::uint32_t tie,
                 Action&& action);
  void release_slot(std::uint32_t slot);
  // Drops stale entries off the heap top.
  void skip_stale();
  // Rebuilds the heap without stale entries.
  void compact();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<HeapEntry> heap_;  // binary min-heap by (at, tie, seq)
  std::vector<Node> slab_;       // pooled action storage
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;  // live (non-cancelled) events in heap_
};

}  // namespace mage::sim
