#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mage::sim {

EventId EventQueue::schedule(common::SimTime at, Action&& action,
                             std::uint32_t tie) {
  return insert(at, next_seq_++, tie, std::move(action));
}

EventId EventQueue::schedule_reserved(common::SimTime at, std::uint64_t seq,
                                      Action&& action) {
  assert(seq < next_seq_);
  return insert(at, seq, 0, std::move(action));
}

EventId EventQueue::insert(common::SimTime at, std::uint64_t seq,
                           std::uint32_t tie, Action&& action) {
  std::uint32_t slot;
  if (free_head_ != kNil) {
    slot = free_head_;
    free_head_ = slab_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Node& node = slab_[slot];
  node.action = std::move(action);
  node.seq = seq;
  node.live = true;
  heap_.push_back(HeapEntry{at, seq, slot, tie});
  sift_up(heap_.size() - 1);
  ++live_;
  return EventId{slot, seq};
}

bool EventQueue::cancel(EventId id) {
  if (id.slot >= slab_.size()) return false;
  Node& node = slab_[id.slot];
  if (!node.live || node.seq != id.seq) return false;  // already fired
  release_slot(id.slot);
  --live_;
  // The heap entry is now stale; drop it lazily, compacting when stale
  // entries dominate so cancelled timers cannot grow the heap unboundedly.
  if (heap_.size() > 8 && heap_.size() - live_ > live_) compact();
  return true;
}

EventQueue::Action EventQueue::pop(common::SimTime& at) {
  skip_stale();
  const HeapEntry top = heap_[0];
  at = top.at;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);

  Action action = std::move(slab_[top.slot].action);
  release_slot(top.slot);
  --live_;
  return action;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Node& node = slab_[slot];
  node.action = nullptr;  // destroy the callable now
  node.live = false;
  node.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::skip_stale() {
  while (!heap_.empty() && !entry_live(heap_[0])) {
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const HeapEntry& e) { return !entry_live(e); });
  // Re-heapify bottom-up.
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
}

void EventQueue::sift_up(std::size_t i) {
  HeapEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!entry.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventQueue::sift_down(std::size_t i) {
  HeapEntry entry = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
    if (!heap_[child].before(entry)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = entry;
}

}  // namespace mage::sim
