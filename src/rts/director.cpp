#include "rts/director.hpp"

#include <string>
#include <utility>

#include "rts/future.hpp"

namespace mage::rts {

namespace proto_verbs = proto::verbs;

// --- Director ----------------------------------------------------------------

Director::Director(rmi::Transport& transport,
                   std::vector<common::NodeId> members)
    : transport_(transport),
      election_(transport, std::move(members)),
      announces_(sim().stats().counter_handle("rts.dir_announces")),
      resolves_(sim().stats().counter_handle("rts.dir_resolves")),
      replications_(sim().stats().counter_handle("rts.dir_replications")) {}

sim::Simulation& Director::sim() {
  return transport_.network().node_sim(transport_.self());
}

void Director::start() {
  transport_.register_service(
      proto_verbs::kDirAnnounce,
      [this](common::NodeId caller, const serial::BufferChain& body,
             rmi::Replier replier) {
        handle_announce(caller, body, std::move(replier));
      });
  transport_.register_service(
      proto_verbs::kDirResolve,
      [this](common::NodeId caller, const serial::BufferChain& body,
             rmi::Replier replier) {
        handle_resolve(caller, body, std::move(replier));
      });
  // Replication arrives as a one-way (see replicate()): apply, answer
  // nothing.
  transport_.register_service(
      proto_verbs::kDirReplicate,
      [this](common::NodeId /*caller*/, const serial::BufferChain& body,
             rmi::Replier /*unarmed*/) {
        apply(proto::DirAnnounceRequest::decode(body).record);
      });
  election_.start();
}

void Director::seed(const proto::PlacementRecord& record) {
  records_[record.name] = record;
}

std::uint64_t Director::apply(const proto::PlacementRecord& record) {
  auto it = records_.find(record.name);
  if (it == records_.end()) {
    records_.emplace(record.name, record);
    return record.epoch;
  }
  // Highest epoch wins; replays and out-of-order replication are no-ops.
  if (record.epoch > it->second.epoch) it->second = record;
  return it->second.epoch;
}

void Director::replicate(const proto::PlacementRecord& record) {
  proto::DirAnnounceRequest request;
  request.record = record;
  for (auto member : election_.members()) {
    if (member == self()) continue;
    ++*replications_;
    // Fire-and-forget as a true transport-level one-way: no pending-table
    // entry, no retransmission, no reply-cache slot on the follower.  A member
    // that misses this update catches up on the next announce of the name
    // (higher epoch) or stays one epoch behind, which readers detect via
    // their own fence — exactly the semantics a replied call with an
    // ignored result was simulating, minus the bookkeeping.
    transport_.call_oneway(member, proto_verbs::kDirReplicate,
                           request.encode());
  }
}

void Director::handle_announce(common::NodeId /*caller*/,
                               const serial::BufferChain& body,
                               rmi::Replier replier) {
  ++*announces_;
  const auto request = proto::DirAnnounceRequest::decode(body);
  proto::DirAnnounceReply reply;
  reply.leader = election_.leader_hint();
  if (!election_.is_leader()) {
    reply.status = proto::Status::Moved;
    reply.error = "not the directory leader";
    replier.ok(reply.encode());
    return;
  }
  reply.status = proto::Status::Ok;
  reply.epoch = apply(request.record);
  replicate(request.record);
  replier.ok(reply.encode());
}

void Director::handle_resolve(common::NodeId /*caller*/,
                              const serial::BufferChain& body,
                              rmi::Replier replier) {
  ++*resolves_;
  const auto request = proto::DirResolveRequest::decode(body);
  proto::DirResolveReply reply;
  reply.leader = election_.leader_hint();
  const auto it = records_.find(request.name);
  if (it == records_.end()) {
    reply.status = proto::Status::NotFound;
    reply.error = "no placement record for '" + request.name + "'";
  } else {
    reply.status = proto::Status::Ok;
    reply.host = it->second.host;
    reply.epoch = it->second.epoch;
  }
  replier.ok(reply.encode());
}

// --- DirectoryClient ---------------------------------------------------------

// The member sweep's pacing: 2ms attempts of two same-id transmissions, up
// to 8 rounds over the member list, a flat 4ms pause between rounds.
constexpr rmi::CallOptions kSweepAttempt{2'000, 2};
constexpr int kSweepRounds = 8;
constexpr common::SimDuration kSweepPauseUs = 4'000;

// One resolve or announce in flight, owned by its transport callback or
// pause timer.
struct DirectoryClient::Sweep {
  common::VerbId verb;
  serial::BufferChain body;  // refcounted; re-sent verbatim per attempt
  Verdict verdict;
  rmi::Transport::Callback done;
  std::size_t position = 0;  // index into directors_ of the next attempt
  int tried_this_round = 0;  // members probed in the current round
  int round = 0;
  bool switched = false;  // left the first member at least once
  common::SimTime start = 0;
};

DirectoryClient::DirectoryClient(rmi::Transport& transport,
                                 std::vector<common::NodeId> directors)
    : transport_(transport),
      sim_(transport.network().node_sim(transport.self())),
      directors_(std::move(directors)),
      preferred_(directors_.empty() ? common::kNoNode : directors_.front()),
      failovers_(sim_.stats().counter_handle("rmi.directory_failovers")) {
  if (directors_.empty()) {
    throw common::MageError("DirectoryClient needs at least one director");
  }
}

std::size_t DirectoryClient::index_of(common::NodeId node) const {
  for (std::size_t i = 0; i < directors_.size(); ++i) {
    if (directors_[i] == node) return i;
  }
  return 0;
}

void DirectoryClient::set_preferred(common::NodeId node) {
  for (const auto director : directors_) {
    if (director == node) preferred_ = node;
  }
}

void DirectoryClient::start_sweep(common::VerbId verb,
                                  serial::BufferChain body, Verdict verdict,
                                  rmi::Transport::Callback done) {
  auto state = std::make_shared<Sweep>();
  state->verb = verb;
  state->body = std::move(body);
  state->verdict = verdict;
  state->done = std::move(done);
  state->position = index_of(preferred_);
  state->start = sim_.now();
  attempt(state);
}

void DirectoryClient::attempt(const std::shared_ptr<Sweep>& sweep) {
  const common::NodeId target = directors_[sweep->position];
  ++sweep->tried_this_round;
  transport_.call(
      target, sweep->verb, sweep->body,
      [this, sweep, target](rmi::CallResult result) {
        common::NodeId redirect = common::kNoNode;
        if (result.ok && sweep->verdict(target, result.body, redirect)) {
          preferred_ = target;
          if (sweep->switched) {
            sim_.stats().add("rmi.directory_failover_time_us",
                             sim_.now() - sweep->start);
          }
          sweep->done(std::move(result));
          return;
        }
        advance(sweep, redirect);
      },
      kSweepAttempt);
}

void DirectoryClient::advance(const std::shared_ptr<Sweep>& sweep,
                              common::NodeId redirect) {
  ++*failovers_;
  sweep->switched = true;
  if (!common::is_no_node(redirect) &&
      redirect != directors_[sweep->position]) {
    // A member told us who the leader is; jump straight there.  The
    // redirect still consumes a probe from the round budget, so a lying
    // quorum cannot loop the sweep forever.
    sweep->position = index_of(redirect);
  } else {
    sweep->position = (sweep->position + 1) % directors_.size();
  }
  if (sweep->tried_this_round < static_cast<int>(directors_.size())) {
    attempt(sweep);
    return;
  }
  sweep->tried_this_round = 0;
  if (++sweep->round >= kSweepRounds) {
    sweep->done(rmi::CallResult::failure(
        "no directory member accepted the call after " +
        std::to_string(kSweepRounds) + " rounds"));
    return;
  }
  sim_.schedule_after(kSweepPauseUs, [this, sweep] { attempt(sweep); });
}

void DirectoryClient::resolve(
    const common::ComponentName& name,
    std::function<void(std::optional<Resolution>)> done) {
  proto::DirResolveRequest request;
  request.name = name;
  start_sweep(
      proto_verbs::kDirResolve, request.encode(),
      [](common::NodeId target, const serial::BufferChain& body,
         common::NodeId& redirect) {
        const auto reply = proto::DirResolveReply::decode(body);
        if (reply.status == proto::Status::Ok) return true;
        if (reply.status == proto::Status::NotFound) {
          // Followers can lag an in-flight replication; only the leader's
          // NotFound is authoritative.  A member that knows a different
          // leader steers the sweep there.
          if (reply.leader == target) return true;
          redirect = reply.leader;
        }
        return false;
      },
      [done = std::move(done)](rmi::CallResult result) {
        if (!result.ok) {
          done(std::nullopt);
          return;
        }
        const auto reply = proto::DirResolveReply::decode(result.body);
        if (reply.status != proto::Status::Ok) {
          done(std::nullopt);
          return;
        }
        done(Resolution{reply.host, reply.epoch});
      });
}

void DirectoryClient::announce(const proto::PlacementRecord& record,
                               std::function<void(bool)> done) {
  proto::DirAnnounceRequest request;
  request.record = record;
  // The verdict accepts only an Ok reply, so an accepted call is an
  // accepted announce.
  start_sweep(
      proto_verbs::kDirAnnounce, request.encode(),
      [](common::NodeId /*target*/, const serial::BufferChain& body,
         common::NodeId& redirect) {
        const auto reply = proto::DirAnnounceReply::decode(body);
        if (reply.status == proto::Status::Ok) return true;
        if (reply.status == proto::Status::Moved) redirect = reply.leader;
        return false;
      },
      [done = std::move(done)](rmi::CallResult result) { done(result.ok); });
}

std::optional<DirectoryClient::Resolution> DirectoryClient::resolve_sync(
    const common::ComponentName& name) {
  // A promise, not a local: the callback outlives this frame when the
  // wait throws.
  MagePromise<std::optional<Resolution>> resolved;
  resolve(name, [resolved](std::optional<Resolution> r) {
    resolved.set_value(r);
  });
  transport_.block_until([&resolved] { return resolved.completed(); },
                         proto_verbs::kDirResolve);
  return resolved.future().value();
}

bool DirectoryClient::announce_sync(const proto::PlacementRecord& record) {
  MagePromise<bool> accepted;
  announce(record, [accepted](bool ok) { accepted.set_value(ok); });
  transport_.block_until([&accepted] { return accepted.completed(); },
                         proto_verbs::kDirAnnounce);
  return accepted.future().value();
}

}  // namespace mage::rts
