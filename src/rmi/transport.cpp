#include "rmi/transport.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "serial/writer.hpp"

namespace mage::rmi {
namespace {

// Refuses a call the transport could not route: an uninterned verb, or a
// destination that is not on the network (common::kNoNode, say).
void check_route(const net::Network& network, const char* what,
                 common::NodeId dest, common::VerbId verb) {
  if (!verb.valid() || verb.value() >= common::interned_verb_count()) {
    throw common::MageError(std::string(what) + " on an uninterned verb id");
  }
  if (!network.has_node(dest)) {
    std::ostringstream os;
    os << what << " '" << common::verb_name(verb) << "' to " << dest
       << ", which is not on this network (it has " << network.node_count()
       << " nodes)";
    throw common::MageError(os.str());
  }
}

}  // namespace

void check_call_options(common::VerbId verb, const CallOptions& options) {
  if (options.retry_timeout_us >= 1 && options.max_attempts >= 1) return;
  throw common::MageError(
      "call '" + common::verb_name(verb) + "' with retry_timeout_us " +
      std::to_string(options.retry_timeout_us) + " and max_attempts " +
      std::to_string(options.max_attempts) +
      ": a call needs a timeout of at least 1us and at least 1 attempt");
}

ErrorKind error_kind(std::string_view error) {
  if (error.starts_with("rmi call")) return ErrorKind::Transport;
  if (error.starts_with("access denied")) return ErrorKind::AccessDenied;
  if (error.starts_with("capacity exceeded")) {
    return ErrorKind::CapacityExceeded;
  }
  return ErrorKind::Remote;
}

void throw_error(const std::string& error) {
  switch (error_kind(error)) {
    case ErrorKind::Transport:
      throw common::TransportError(error);
    case ErrorKind::AccessDenied:
      throw common::AccessDeniedError(error);
    case ErrorKind::CapacityExceeded:
      throw common::CapacityError(error);
    case ErrorKind::Remote:
      break;
  }
  throw common::RemoteInvocationError(error);
}

Transport* Replier::fire() {
  if (transport_ == nullptr) {
    throw common::MageError(
        "reply through a spent, moved-from, or default-constructed Replier "
        "(verb '" + common::verb_name(verb_) + "'): services reply exactly "
        "once");
  }
  return std::exchange(transport_, nullptr);
}

void Replier::ok(serial::BufferChain body) {
  fire()->send_reply(to_, id_, verb_, true, {}, std::move(body));
}

void Replier::error(const std::string& message) {
  fire()->send_reply(to_, id_, verb_, false, message, {});
}

Transport::Transport(net::Network& network, common::NodeId self,
                     std::size_t reply_cache_capacity)
    : network_(network),
      sim_(network.node_sim(self)),
      self_(self),
      calls_(sim_.stats().counter_handle("rmi.calls")),
      failures_(sim_.stats().counter_handle("rmi.failures")),
      retransmissions_(sim_.stats().counter_handle("rmi.retransmissions")),
      duplicates_suppressed_(
          sim_.stats().counter_handle("rmi.duplicates_suppressed")),
      stale_replies_(sim_.stats().counter_handle("rmi.stale_replies")),
      reply_cache_evictions_(
          sim_.stats().counter_handle("rmi.reply_cache_evictions")),
      evicted_reexecutions_(
          sim_.stats().counter_handle("rmi.evicted_reexecutions")),
      cancelled_calls_(sim_.stats().counter_handle("rmi.cancelled_calls")),
      oneway_calls_(sim_.stats().counter_handle("rmi.oneway_calls")),
      oneway_executions_(sim_.stats().counter_handle("rmi.oneway_executions")),
      oneway_no_service_(sim_.stats().counter_handle("rmi.oneway_no_service")),
      batches_sent_(sim_.stats().counter_handle("rmi.batches_sent")),
      batched_invokes_(sim_.stats().counter_handle("rmi.batched_invokes")),
      batch_singletons_(sim_.stats().counter_handle("rmi.batch_singletons")),
      reply_cache_grows_(
          sim_.stats().counter_handle("rmi.reply_cache_grows")),
      reply_cache_capacity_stat_(
          sim_.stats().counter_handle("rmi.reply_cache_capacity")),
      reply_cache_capacity_high_water_(
          sim_.stats().counter_handle("rmi.reply_cache_capacity_highwater")),
      batch_verb_(common::intern_verb("rmi.batch")),
      reply_cache_ceiling_(reply_cache_capacity),
      reply_cache_capacity_(reply_cache_capacity) {
  if (reply_cache_capacity_ == 0) {
    throw common::MageError(
        "reply cache capacity must be at least 1 (at-most-once needs a "
        "live entry per in-flight request)");
  }
  // The slim probe index is pre-sized for at most kIndexPresize entries
  // and otherwise grows with the live ones: a large cache (a 32,768-entry
  // one has a 1 MB index) commits only what its traffic fills, while a
  // small one keeps the allocation pattern of a fully pre-sized index
  // (growing it by doubling let glibc trim the heap between benchmark
  // rounds, so the next setup faulted pages back in).  The entries ring
  // is reserved at its first insert, filled append-only up to capacity,
  // then overwritten in place.  Once the ring has wrapped the index holds
  // exactly capacity keys, so the receive path never allocates.
  reply_cache_index_.reserve(std::min(reply_cache_capacity_, kIndexPresize));
  *reply_cache_capacity_stat_ = static_cast<std::int64_t>(reply_cache_capacity_);
  *reply_cache_capacity_high_water_ =
      static_cast<std::int64_t>(reply_cache_capacity_);
  network_.set_handler(self_, [this](net::Message& msg) { on_message(msg); });
}

void Transport::set_batching(BatchOptions options) {
  if (options.enabled && options.flush_quantum_us < 1) {
    throw common::MageError("batching needs a flush quantum of at least 1");
  }
  // Never strand queued envelopes under the old policy.
  flush_all();
  batch_options_ = options;
}

void Transport::set_adaptive_reply_cache(AdaptiveCacheOptions options) {
  if (!options.enabled) {
    reply_cache_ceiling_ = reply_cache_capacity_;
    return;
  }
  if (options.floor < 1 || options.ceiling < options.floor) {
    throw common::MageError(
        "adaptive reply cache needs 1 <= floor <= ceiling");
  }
  if (options.ceiling < reply_cache_capacity_) {
    throw common::MageError(
        "adaptive reply cache ceiling " + std::to_string(options.ceiling) +
        " is below the current capacity " +
        std::to_string(reply_cache_capacity_) + ": the ring never shrinks");
  }
  reply_cache_ceiling_ = options.ceiling;
  if (options.floor > reply_cache_capacity_) grow_reply_cache(options.floor);
}

void Transport::register_service(common::VerbId verb, Service service) {
  if (!verb.valid()) {
    throw common::MageError("cannot register a service on an invalid verb");
  }
  if (verb.value() >= services_.size()) {
    services_.resize(verb.value() + 1);
  }
  services_[verb.value()] = std::move(service);
}

std::int64_t* Transport::verb_calls_counter(common::VerbId verb) {
  if (verb.value() >= per_verb_calls_.size()) {
    per_verb_calls_.resize(verb.value() + 1, nullptr);
  }
  auto*& handle = per_verb_calls_[verb.value()];
  if (handle == nullptr) {
    handle = sim_.stats().counter_handle(common::verb_calls_stat(verb));
  }
  return handle;
}

common::RequestId Transport::call(common::NodeId dest, common::VerbId verb,
                                  serial::BufferChain body, Callback callback,
                                  CallOptions options) {
  check_route(network_, "call", dest, verb);
  check_call_options(verb, options);
  const std::uint32_t c = retry_class(options.retry_timeout_us);
  const common::RequestId id{next_request_++};
  const std::size_t body_size = body.size();
  const std::uint32_t slot = pending_calls_.emplace();
  auto [indexed, inserted] = pending_.try_emplace(id.value());
  assert(inserted);
  (void)inserted;
  *indexed = slot;
  PendingCall& pc = pending_calls_[slot];
  pc.dest = dest;
  pc.verb = verb;
  pc.body = std::move(body);
  pc.callback = std::move(callback);
  pc.max_attempts = options.max_attempts;
  pc.retry_class = c;

  ++*calls_;
  ++*verb_calls_counter(verb);

  // Client-side overhead: stub entry + argument marshalling, charged as
  // simulated CPU time before the request reaches the wire.
  const auto& model = network_.cost_model();
  const common::SimDuration prep =
      model.rmi_client_overhead_us + model.marshal_time(body_size);
  // Always an event (never inline, even at zero cost): call() runs in
  // driver context, and the driver must keep its window to mutate faults
  // before the request reaches the wire — the seed's contract.
  sim_.schedule_after(prep, [this, id] { transmit(id); });
  return id;
}

void Transport::cancel(common::RequestId id) {
  const std::uint32_t* slot = pending_.find(id.value());
  if (slot == nullptr) return;
  // The initial prep event may still reference this id; transmit()
  // tolerates a missing entry.
  retire(pending_calls_[*slot]);
  erase_pending(id, *slot);
  ++*cancelled_calls_;
}

void Transport::erase_pending(common::RequestId id, std::uint32_t slot) {
  pending_.erase(id.value());
  pending_calls_.release(slot);
}

void Transport::call_oneway(common::NodeId dest, common::VerbId verb,
                            serial::BufferChain body) {
  check_route(network_, "call_oneway", dest, verb);
  ++*oneway_calls_;
  ++*verb_calls_counter(verb);

  const std::uint32_t slot = parked_.emplace();
  Envelope& env = parked_[slot];
  env.kind = EnvelopeKind::OneWay;
  // Ids keep the global sequence so traces stay unambiguous; one-way ids
  // never enter the pending table or the at-most-once key space.
  env.request_id = common::RequestId{next_request_++};
  env.verb = verb;
  env.body = std::move(body);

  const auto& model = network_.cost_model();
  const common::SimDuration prep =
      model.rmi_client_overhead_us + model.marshal_time(env.body.size());
  // An event for the same reason as call(): keep the driver's window to
  // mutate faults before the send reaches the wire.
  route_after(prep, dest, slot, net::MsgKind::OneWay);
}

void Transport::route_after(common::SimDuration delay, common::NodeId dest,
                            std::uint32_t slot, net::MsgKind kind) {
  sim_.schedule_after(delay, [this, dest, slot, kind] {
    route(dest, parked_[slot], kind);
    parked_.release(slot);
  });
}

void Transport::transmit(common::RequestId id) {
  const std::uint32_t* found = pending_.find(id.value());
  if (found == nullptr) return;
  const std::uint32_t slot = *found;
  PendingCall& pc = pending_calls_[slot];

  if (pc.attempts >= pc.max_attempts) {
    // Its last deadline was popped by the event running this, so the
    // class holds nothing of it.
    auto callback = std::move(pc.callback);
    const std::string message =
        "rmi call '" + common::verb_name(pc.verb) + "' timed out after " +
        std::to_string(pc.max_attempts) + " attempts";
    erase_pending(id, slot);
    ++*failures_;
    callback(CallResult::failure(message));
    return;
  }

  ++pc.attempts;
  if (pc.attempts > 1) ++*retransmissions_;

  Envelope env;
  env.kind = EnvelopeKind::Request;
  env.request_id = id;
  env.verb = pc.verb;
  env.body = pc.body;  // fragment refcounts, not a copy
  route(pc.dest, env, net::MsgKind::Request);
  pc.ticket = push_deadline(pc.retry_class, id);
}

std::uint32_t Transport::retry_class(common::SimDuration timeout_us) {
  for (std::uint32_t c = 0; c < retry_classes_.size(); ++c) {
    if (retry_classes_[c].timeout_us == timeout_us) return c;
  }
  retry_classes_.emplace_back().timeout_us = timeout_us;
  return static_cast<std::uint32_t>(retry_classes_.size() - 1);
}

std::uint32_t Transport::RetryClass::push_back(const Deadline& d) {
  if (count == ring.size()) {
    std::vector<Deadline> grown(std::max<std::size_t>(16, 2 * ring.size()));
    for (std::size_t i = 0; i < count; ++i) {
      grown[i] = ring[(head + i) & (ring.size() - 1)];
    }
    ring = std::move(grown);
    head = 0;
  }
  ring[(head + count) & (ring.size() - 1)] = d;
  ++count;
  return popped + static_cast<std::uint32_t>(count - 1);
}

std::uint32_t Transport::push_deadline(std::uint32_t c,
                                       common::RequestId request) {
  RetryClass& rc = retry_classes_[c];
  // The number a timer scheduled now would take: the retransmission fires
  // in that timer's place among same-instant events.
  const std::uint32_t ticket = rc.push_back(Deadline{
      sim_.now() + rc.timeout_us, sim_.reserve_seq(), request.value()});
  if (!rc.armed) arm(c);
  return ticket;
}

void Transport::arm(std::uint32_t c) {
  RetryClass& rc = retry_classes_[c];
  const Deadline& head = rc.front();
  rc.event = sim_.schedule_reserved(head.at, head.seq,
                                    [this, c] { on_retry_due(c); });
  rc.armed = true;
}

void Transport::drop_completed(RetryClass& rc) {
  while (!rc.empty() && rc.front().request == 0) rc.pop_front();
}

void Transport::on_retry_due(std::uint32_t c) {
  RetryClass& rc = retry_classes_[c];
  assert(!rc.empty());
  rc.armed = false;
  // The head is always pending here (completions pop completed heads), but
  // it is the entry this event was armed for only if that one is still
  // pending; otherwise the event just moves on to the new head.
  std::uint64_t due = 0;
  if (rc.front().seq == rc.event.seq) {
    due = rc.front().request;
    rc.pop_front();
    drop_completed(rc);
  }
  // Retransmitting pushes a fresh deadline (arming the event if the ring
  // ran empty); giving up runs the callback, which may issue or cancel
  // calls, and may add classes.
  if (due != 0) transmit(common::RequestId{due});
  RetryClass& after = retry_classes_[c];
  if (!after.armed && !after.empty()) arm(c);
}

void Transport::retire(const PendingCall& pc) {
  // No entry before the first transmission, nor once the event running a
  // retransmission popped it.
  if (pc.attempts == 0) return;
  RetryClass& rc = retry_classes_[pc.retry_class];
  Deadline* entry = rc.find(pc.ticket);
  if (entry == nullptr) return;
  entry->request = 0;
  drop_completed(rc);
  if (rc.empty() && rc.armed) {
    sim_.cancel(rc.event);
    rc.armed = false;
  }
}

void Transport::send_now(common::NodeId dest, Envelope& env,
                         net::MsgKind kind) {
  network_.send(net::Message{self_, dest, env.verb, kind, env.encode_header(),
                             std::move(env.body)});
}

void Transport::route(common::NodeId dest, Envelope& env, net::MsgKind kind) {
  if (!batch_options_.enabled || dest.value() == self_.value() ||
      env.body.size() > kMaxInlineBody) {
    // Loopback and oversized bodies keep the scatter-gather direct path.
    send_now(dest, env, kind);
    return;
  }
  if (batch_queues_.size() <= dest.value()) {
    batch_queues_.resize(dest.value() + 1);
  }
  LinkQueue& queue = batch_queues_[dest.value()];
  if (queue.envelopes.empty()) queue.first_kind = kind;
  queue.bytes += env.encoded_size();
  queue.envelopes.push_back(std::move(env));
  if (queue.envelopes.size() >= kMaxBatchInvokes ||
      queue.bytes >= kMaxBatchBytes) {
    flush_link(dest.value());
    return;
  }
  schedule_flush();
}

void Transport::schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  // Absolute quantum boundaries, not now()+quantum: every node's flushes
  // land on the same global grid, so a request batch and the batch of its
  // replies pipeline one quantum apart instead of drifting.
  const common::SimDuration quantum = batch_options_.flush_quantum_us;
  const common::SimTime at = (sim_.now() / quantum + 1) * quantum;
  sim_.schedule_at(at, [this] { flush_all(); });
}

void Transport::flush_all() {
  flush_scheduled_ = false;
  for (std::size_t dest = 0; dest < batch_queues_.size(); ++dest) {
    flush_link(dest);
  }
}

void Transport::flush_link(std::size_t dest_index) {
  LinkQueue& queue = batch_queues_[dest_index];
  if (queue.envelopes.empty()) return;
  const common::NodeId dest{static_cast<std::uint32_t>(dest_index)};
  const std::size_t count = queue.envelopes.size();
  if (count == 1) {
    // Single-invoke degenerate case: collapse to the plain envelope so the
    // single-fragment fast path (and its header counter) still applies.
    ++*batch_singletons_;
    send_now(dest, queue.envelopes.front(), queue.first_kind);
    queue.envelopes.clear();
    queue.bytes = 0;
    return;
  }
  // One flat frame for every queued envelope (one allocation), sent as one
  // net::Message: one mailbox push, one wire_seq.
  serial::Buffer frame = Envelope::encode_batch(queue.envelopes);
  ++*batches_sent_;
  *batched_invokes_ += static_cast<std::int64_t>(count);
  queue.envelopes.clear();
  queue.bytes = 0;
  network_.send(net::Message{self_, dest, batch_verb_, net::MsgKind::Batch,
                             std::move(frame), {}});
}

serial::BufferChain Transport::call_sync(common::NodeId dest,
                                         common::VerbId verb,
                                         serial::BufferChain body,
                                         CallOptions options) {
  // Checked before issuing: the callback below captures this frame.
  require_one_shard(verb);
  std::optional<CallResult> result;
  call(
      dest, verb, std::move(body),
      [&result](CallResult r) { result = std::move(r); }, options);
  block_until([&result] { return result.has_value(); }, verb);
  if (!result->ok) throw_error(result->error);
  return std::move(result->body);
}

void Transport::block_until(const std::function<bool()>& done,
                            common::VerbId awaited) {
  require_one_shard(awaited);
  if (!sim_.run_until(done)) {
    throw common::TransportError("simulation drained while waiting for a '" +
                                 common::verb_name(awaited) + "' reply");
  }
}

void Transport::require_one_shard(common::VerbId awaited) const {
  if (network_.shard_count() > 1) {
    throw common::MageError(
        "blocking on a '" + common::verb_name(awaited) +
        "' reply needs a one-shard network: this one has " +
        std::to_string(network_.shard_count()) +
        " shards, and the reply may depend on shards this thread would not "
        "run — use the asynchronous API and complete from the callback");
  }
}

void Transport::on_message(net::Message& msg) {
  if (Envelope::is_batch(msg.header)) {
    // One mailbox push carried the whole flush: decode and validate the
    // whole frame (zero-copy slices), then dispatch the sub-envelopes in
    // their sent order.  The vector is moved out while it dispatches, so
    // a delivery nested inside a service decodes into a vector of its own.
    std::vector<Envelope> batch = std::move(batch_rx_);
    Envelope::decode_batch(msg.header, batch);
    for (Envelope& env : batch) dispatch_envelope(msg.from, env);
    batch.clear();  // drops the slices of the frame, keeps the capacity
    batch_rx_ = std::move(batch);
    return;
  }
  Envelope env = Envelope::decode(msg.header, std::move(msg.body));
  dispatch_envelope(msg.from, env);
}

void Transport::dispatch_envelope(common::NodeId from, Envelope& env) {
  switch (env.kind) {
    case EnvelopeKind::Request:
      on_request(from, env);
      break;
    case EnvelopeKind::OneWay:
      on_oneway(from, env);
      break;
    case EnvelopeKind::Reply:
      on_reply(env);
      break;
  }
}

void Transport::on_oneway(common::NodeId from, Envelope& env) {
  // One-way requests never touch the at-most-once state: nothing ever
  // retransmits them, so a duplicate cannot exist; and with no Replier to
  // arm there is no reply to cache.
  const std::uint32_t verb_index = env.verb.value();
  if (verb_index >= services_.size() || !services_[verb_index]) {
    // No reply channel to carry the error — count and drop.
    ++*oneway_no_service_;
    return;
  }
  ++*oneway_executions_;
  serve(from, env, /*armed=*/false);
}

void Transport::serve(common::NodeId from, Envelope& env, bool armed) {
  const auto& model = network_.cost_model();
  const common::SimDuration cost =
      model.rmi_server_dispatch_us + model.marshal_time(env.body.size());
  if (cost == 0) {
    run_service(from, env, armed);
    return;
  }
  const std::uint32_t slot = parked_.emplace(std::move(env));
  sim_.schedule_after(cost, [this, from, slot, armed] {
    run_service(from, parked_[slot], armed);
    parked_.release(slot);
  });
}

void Transport::run_service(common::NodeId from, const Envelope& env,
                            bool armed) {
  // Resolved when it runs: the table may have grown since dispatch (deque
  // growth leaves the entry in place even if the service itself registers
  // new verbs).
  services_[env.verb.value()](
      from, env.body,
      armed ? Replier(this, from, env.request_id, env.verb) : Replier{});
}

void Transport::mark_evicted(std::uint64_t key, common::RequestId id) {
  CallerMarks* marks = caller_marks_.try_emplace(key >> 32).first;
  marks->evicted_max = std::max(marks->evicted_max, id.value());
}

void Transport::grow_reply_cache(std::size_t new_capacity) {
  const std::size_t live = reply_cache_entries_.size();
  const std::size_t start =
      live == reply_cache_capacity_ ? reply_cache_head_ : 0;
  std::vector<ReplyCacheEntry> rebuilt;
  rebuilt.reserve(new_capacity);
  for (std::size_t i = 0; i < live; ++i) {
    rebuilt.push_back(
        std::move(reply_cache_entries_[(start + i) % reply_cache_capacity_]));
    // A grow keeps every key; only its slot moves.
    *reply_cache_index_.find(rebuilt.back().key) =
        static_cast<std::uint32_t>(i);
  }
  reply_cache_entries_ = std::move(rebuilt);
  reply_cache_head_ = 0;
  reply_cache_capacity_ = new_capacity;
  // Sized like a new index; it grows with the ring from there.
  reply_cache_index_.reserve(std::min(new_capacity, kIndexPresize));
  ++*reply_cache_grows_;
  evictions_since_grow_ = 0;
  *reply_cache_capacity_stat_ = static_cast<std::int64_t>(new_capacity);
  *reply_cache_capacity_high_water_ =
      std::max(*reply_cache_capacity_high_water_,
               static_cast<std::int64_t>(new_capacity));
}

Transport::ReplyCacheEntry* Transport::reply_cache_insert(std::uint64_t key) {
  if (reply_cache_entries_.size() == reply_cache_capacity_ &&
      reply_cache_capacity_ < reply_cache_ceiling_ &&
      evictions_since_grow_ >= kGrowThreshold) {
    // Double before this insert evicts yet another live entry.
    grow_reply_cache(
        std::min(reply_cache_ceiling_, reply_cache_capacity_ * 2));
  }
  std::uint32_t slot;
  if (reply_cache_entries_.size() < reply_cache_capacity_) {
    // The whole ring at once: growing it by doubling frees a block per
    // step, and with nothing else allocated per call those frees let
    // glibc trim the heap, so the next federation's setup faults its
    // pages back in.
    if (reply_cache_entries_.empty()) {
      reply_cache_entries_.reserve(reply_cache_capacity_);
    }
    slot = static_cast<std::uint32_t>(reply_cache_entries_.size());
    reply_cache_entries_.emplace_back();
  } else {
    // Ring full: this slot's previous occupant is the entry evicted.
    slot = static_cast<std::uint32_t>(reply_cache_head_);
    reply_cache_head_ = (reply_cache_head_ + 1) % reply_cache_capacity_;
    ReplyCacheEntry& evicted = reply_cache_entries_[slot];
    reply_cache_index_.erase(evicted.key);
    ++*reply_cache_evictions_;
    ++evictions_since_grow_;
    mark_evicted(evicted.key, evicted.request_id);
    evicted.reply.clear(reply_spill_);
  }
  *reply_cache_index_.try_emplace(key).first = slot;
  ReplyCacheEntry* entry = &reply_cache_entries_[slot];
  entry->key = key;
  return entry;
}

void Transport::on_request(common::NodeId from, Envelope& env) {
  const std::uint64_t key = pack_key(from, env.request_id);
  const std::uint32_t* cached_slot = reply_cache_index_.find(key);
  ReplyCacheEntry* cached =
      cached_slot != nullptr ? &reply_cache_entries_[*cached_slot] : nullptr;
  if (cached != nullptr && cached->request_id == env.request_id) {
    // Duplicate (retransmission).  If we already answered, answer again
    // from the cache; if the service is still working, stay silent.
    ++*duplicates_suppressed_;
    if (cached->reply.completed()) {
      Envelope reply = cached->reply.rebuild(cached->request_id, reply_spill_);
      route(from, reply, net::MsgKind::ReplyDup);
    }
    return;
  }

  const std::uint32_t verb_index = env.verb.value();
  if (verb_index >= services_.size() || !services_[verb_index]) {
    send_reply(from, env.request_id, env.verb, false,
               "no service registered for verb '" +
                   common::verb_name(env.verb) + "' on node " +
                   std::to_string(self_.value()),
               {});
    return;
  }

  // Not in the cache — a genuinely new request, a first transmission
  // arriving late (its predecessors already raised the high-water mark),
  // or a retransmission whose at-most-once entry was evicted (the ring
  // wrapped while it was in flight).  Only the last re-executes an
  // already-run service; it is the one at or below the caller's evicted
  // high-water mark.  Surface it — nothing better than re-executing is
  // possible once the entry is gone (see CallerMarks).
  {
    CallerMarks* marks = caller_marks_.try_emplace(
        static_cast<std::uint64_t>(from.value())).first;
    if (env.request_id.value() > marks->high_water) {
      marks->high_water = env.request_id.value();
    } else if (env.request_id.value() <= marks->evicted_max) {
      ++*evicted_reexecutions_;
      // An at-most-once violation is the strongest pressure signal there
      // is: trip the grow threshold immediately.
      evictions_since_grow_ = std::max(evictions_since_grow_, kGrowThreshold);
    }
  }

  // Record the request in the at-most-once state.  A fresh key claims a
  // ring slot (evicting its previous occupant once the ring is full); a
  // low-32-bit aliased leftover (cached != null but request ids differ) is
  // overwritten in place, keeping its ring position — re-inserting it
  // would give the key two ring slots and let the older one evict the
  // newer, still-live entry, breaking at-most-once.
  if (cached != nullptr) {
    // Alias overwrite is an eviction in disguise: the previous occupant's
    // at-most-once entry is gone the moment we reuse its slot.
    mark_evicted(cached->key, cached->request_id);
    cached->reply.clear(reply_spill_);
  }
  ReplyCacheEntry* entry =
      cached != nullptr ? cached : reply_cache_insert(key);
  entry->request_id = env.request_id;

  // Server-side overhead: skeleton dispatch + argument unmarshalling.
  serve(from, env, /*armed=*/true);
}

void Transport::send_reply(common::NodeId to, common::RequestId id,
                           common::VerbId verb, bool ok,
                           const std::string& error,
                           serial::BufferChain body) {
  const std::uint32_t slot = parked_.emplace();
  Envelope& reply = parked_[slot];
  reply.kind = EnvelopeKind::Reply;
  reply.request_id = id;
  reply.verb = verb;
  reply.ok = ok;
  reply.error = error;
  reply.body = std::move(body);

  const std::uint64_t key = pack_key(to, id);
  if (const std::uint32_t* cached = reply_cache_index_.find(key);
      cached != nullptr && reply_cache_entries_[*cached].request_id == id) {
    reply_cache_entries_[*cached].reply.store(reply, reply_spill_);
  }

  // No result marshalling is charged: every simulated figure (the paper
  // benches' goldens, bench/e2e's sim-time latencies) is calibrated
  // without it (ROADMAP item 10).
  // Always an event, even at zero cost: a reply may be sent from user code
  // (service dispatch or a parked Replier), after which the driver regains
  // control at once — and drivers legitimately mutate faults in that
  // window expecting the not-yet-sent reply to be affected (rmi_test
  // partitions a link between execution and reply to force a
  // retransmission storm).  Inlining here would leak the reply onto the
  // wire before the driver runs.
  route_after(0, to, slot, net::MsgKind::Reply);
}

void Transport::on_reply(Envelope& env) {
  const std::uint32_t* found = pending_.find(env.request_id.value());
  if (found == nullptr) {
    ++*stale_replies_;
    return;
  }
  const std::uint32_t slot = *found;
  PendingCall& pc = pending_calls_[slot];
  auto callback = std::move(pc.callback);
  // A failed reply carries an empty body, a successful one an empty error.
  CallResult result{env.ok, std::move(env.error), std::move(env.body)};
  retire(pc);
  erase_pending(env.request_id, slot);
  callback(std::move(result));
}

// --- CachedReply -------------------------------------------------------------

Transport::CachedReply::CachedReply(CachedReply&& other) noexcept
    : verb_(other.verb_),
      form_(other.form_),
      fragments_(other.fragments_),
      sizes_{other.sizes_[0], other.sizes_[1]} {
  switch (form_) {
    case Form::Running:
      break;
    case Form::Packed:
      std::memcpy(packed_, other.packed_, kPackedBytes);
      break;
    case Form::Handle:
      ::new (&handle_) serial::Buffer(std::move(other.handle_));
      other.handle_.~Buffer();
      break;
    case Form::Spilled:
      spill_ = other.spill_;
      break;
  }
  other.form_ = Form::Running;
}

void Transport::CachedReply::store(const Envelope& reply,
                                   common::Slab<Envelope>& spill) {
  // A request re-executed after its entry was evicted can reply twice
  // (both executions hold a Replier); the later reply is the one kept.
  clear(spill);
  verb_ = reply.verb;
  const serial::BufferChain& body = reply.body;
  bool packs =
      reply.ok && body.fragments() <= 2 && body.size() <= kPackedBytes;
  for (std::size_t i = 0; packs && i < body.fragments(); ++i) {
    packs = body.fragment(i).size() <= serial::Buffer::kInlineCapacity;
  }
  if (packs) {
    fragments_ = static_cast<std::uint8_t>(body.fragments());
    std::size_t at = 0;
    for (std::size_t i = 0; i < fragments_; ++i) {
      const serial::Buffer& fragment = body.fragment(i);
      sizes_[i] = static_cast<std::uint8_t>(fragment.size());
      if (!fragment.empty()) {
        std::memcpy(packed_ + at, fragment.data(), fragment.size());
      }
      at += fragment.size();
    }
    form_ = Form::Packed;
  } else if (reply.ok && body.fragments() == 1) {
    ::new (&handle_) serial::Buffer(body.fragment(0));
    form_ = Form::Handle;
  } else {
    spill_ = spill.emplace(reply);  // fragment refcounts, not a copy
    form_ = Form::Spilled;
  }
}

Envelope Transport::CachedReply::rebuild(
    common::RequestId id, common::Slab<Envelope>& spill) const {
  assert(completed());
  if (form_ == Form::Spilled) return spill[spill_];
  Envelope reply;
  reply.kind = EnvelopeKind::Reply;
  reply.request_id = id;
  reply.verb = verb_;
  if (form_ == Form::Handle) {
    reply.body.append(handle_);
    return reply;
  }
  // Each packed fragment becomes an inline Buffer of its own size again.
  serial::Writer writer;
  std::size_t at = 0;
  for (std::size_t i = 0; i < fragments_; ++i) {
    writer.write_raw(packed_ + at, sizes_[i]);
    reply.body.append(writer.take());
    at += sizes_[i];
  }
  return reply;
}

void Transport::CachedReply::clear(common::Slab<Envelope>& spill) {
  switch (form_) {
    case Form::Running:
    case Form::Packed:
      break;
    case Form::Handle:
      handle_.~Buffer();
      break;
    case Form::Spilled:
      spill.release(spill_);
      break;
  }
  form_ = Form::Running;
}

}  // namespace mage::rmi
