#include "rts/director.hpp"

#include <utility>

#include "rts/future.hpp"

namespace mage::rts {

namespace proto_verbs = proto::verbs;

// --- Director ----------------------------------------------------------------

Director::Director(rmi::Transport& transport,
                   std::vector<common::NodeId> members,
                   Election::Config config)
    : transport_(transport),
      election_(transport, std::move(members), config),
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
    // entry, no retry timer, no reply-cache slot on the follower.  A member
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

DirectoryClient::DirectoryClient(rmi::Transport& transport,
                                 std::vector<common::NodeId> directors,
                                 rmi::CallPolicy policy)
    : transport_(transport),
      channel_(transport, std::move(directors), policy) {}

void DirectoryClient::resolve(
    const common::ComponentName& name,
    std::function<void(std::optional<Resolution>)> done) {
  proto::DirResolveRequest request;
  request.name = name;
  channel_.call_with_verdict(
      proto_verbs::kDirResolve, request.encode(),
      [](common::NodeId target, const rmi::CallResult& result,
         common::NodeId& redirect) {
        const auto reply = proto::DirResolveReply::decode(result.body);
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
  channel_.call_with_verdict(
      proto_verbs::kDirAnnounce, request.encode(),
      [](common::NodeId /*target*/, const rmi::CallResult& result,
         common::NodeId& redirect) {
        const auto reply = proto::DirAnnounceReply::decode(result.body);
        if (reply.status == proto::Status::Ok) return true;
        if (reply.status == proto::Status::Moved) redirect = reply.leader;
        return false;
      },
      [done = std::move(done)](rmi::CallResult result) {
        if (!result.ok) {
          done(false);
          return;
        }
        const auto reply = proto::DirAnnounceReply::decode(result.body);
        done(reply.status == proto::Status::Ok);
      });
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
