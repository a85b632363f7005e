#include "rts/election.hpp"

#include <utility>

namespace mage::rts {

namespace proto_verbs = proto::verbs;

// Vote and heartbeat traffic is fire-and-forget: liveness comes from the
// timers re-sending fresh rounds, not from transport retransmission.  One
// attempt with a short timeout keeps a partitioned member cheap.
constexpr rmi::CallOptions kElectionCall{2'000, 1};

// The leader's liveness signal, well under the election timeout.
constexpr common::SimDuration kHeartbeatIntervalUs = 1'500;
// Election timeout = min + rng.next_below(span): the randomized spread is
// what breaks split votes deterministically.
constexpr common::SimDuration kElectionTimeoutMinUs = 4'000;
constexpr common::SimDuration kElectionTimeoutSpanUs = 4'000;

Election::Election(rmi::Transport& transport,
                   std::vector<common::NodeId> members)
    : transport_(transport),
      members_(std::move(members)),
      elections_held_(sim().stats().counter_handle("rts.elections_held")),
      leader_changes_(sim().stats().counter_handle("rts.leader_changes")) {}

sim::Simulation& Election::sim() {
  return transport_.network().node_sim(transport_.self());
}

void Election::start() {
  transport_.register_service(
      proto_verbs::kRequestVote,
      [this](common::NodeId caller, const serial::BufferChain& body,
             rmi::Replier replier) {
        handle_request_vote(caller, body, std::move(replier));
      });
  transport_.register_service(
      proto_verbs::kHeartbeat,
      [this](common::NodeId caller, const serial::BufferChain& body,
             rmi::Replier replier) {
        handle_heartbeat(caller, body, std::move(replier));
      });
  arm_timeout();
}

void Election::arm_timeout() {
  const std::uint64_t gen = ++timeout_gen_;
  const common::SimDuration delay =
      kElectionTimeoutMinUs +
      static_cast<common::SimDuration>(
          transport_.network().node_rng(self()).next_below(
              static_cast<std::uint64_t>(kElectionTimeoutSpanUs)));
  sim().schedule_after(delay, [this, gen] { on_timeout(gen); });
}

void Election::on_timeout(std::uint64_t gen) {
  if (gen != timeout_gen_) return;  // re-armed since; stale timer
  if (role_ == Role::Leader) return;
  start_election();
}

void Election::start_election() {
  role_ = Role::Candidate;
  ++term_;
  voted_for_ = self();
  leader_ = common::kNoNode;
  votes_ = 1;  // own vote
  election_start_ = sim().now();
  ++*elections_held_;
  // Re-arm: if this round splits or drowns, a fresh timeout starts the
  // next term.
  arm_timeout();

  proto::VoteRequest request;
  request.term = term_;
  request.candidate = self();
  const std::uint64_t election_term = term_;
  for (auto member : members_) {
    if (member == self()) continue;
    transport_.call(
        member, proto_verbs::kRequestVote, request.encode(),
        [this, election_term](rmi::CallResult result) {
          if (!result.ok) return;  // unreachable member; timers handle it
          const auto reply = proto::VoteReply::decode(result.body);
          if (reply.term > term_) {
            become_follower(reply.term, common::kNoNode);
            return;
          }
          if (role_ != Role::Candidate || term_ != election_term) return;
          if (!reply.granted) return;
          if (++votes_ >= majority()) become_leader();
        },
        kElectionCall);
  }
}

void Election::become_leader() {
  role_ = Role::Leader;
  leader_ = self();
  ++*leader_changes_;
  // Election latency in simulated time, from the term's first candidacy to
  // the majority landing.
  sim().stats().add("rts.election_time_us", sim().now() - election_start_);
  send_heartbeats();
  schedule_heartbeat(++heartbeat_gen_);
}

void Election::become_follower(std::uint64_t term, common::NodeId leader) {
  if (term > term_) {
    term_ = term;
    voted_for_ = common::kNoNode;
  }
  if (role_ != Role::Follower) {
    role_ = Role::Follower;
    ++heartbeat_gen_;  // stop any leader heartbeat loop
  }
  if (!common::is_no_node(leader)) leader_ = leader;
}

void Election::schedule_heartbeat(std::uint64_t gen) {
  sim().schedule_after(
      kHeartbeatIntervalUs,
      [this, gen] {
        if (gen != heartbeat_gen_ || role_ != Role::Leader) return;
        send_heartbeats();
        schedule_heartbeat(gen);
      });
}

void Election::send_heartbeats() {
  proto::HeartbeatRequest request;
  request.term = term_;
  request.leader = self();
  for (auto member : members_) {
    if (member == self()) continue;
    transport_.call(
        member, proto_verbs::kHeartbeat, request.encode(),
        [this](rmi::CallResult result) {
          if (!result.ok) return;
          const auto reply = proto::HeartbeatReply::decode(result.body);
          if (reply.term > term_) {
            // A higher term exists (e.g. a revived member re-elected);
            // step down and wait for its leader's heartbeat.
            become_follower(reply.term, common::kNoNode);
            arm_timeout();
          }
        },
        kElectionCall);
  }
}

void Election::handle_request_vote(common::NodeId /*caller*/,
                                   const serial::BufferChain& body,
                                   rmi::Replier replier) {
  const auto request = proto::VoteRequest::decode(body);
  if (request.term > term_) become_follower(request.term, common::kNoNode);
  proto::VoteReply reply;
  const bool granted =
      request.term == term_ &&
      (common::is_no_node(voted_for_) || voted_for_ == request.candidate);
  if (granted) {
    voted_for_ = request.candidate;
    arm_timeout();  // granting a vote defers our own candidacy
  }
  reply.term = term_;
  reply.granted = granted;
  replier.ok(reply.encode());
}

void Election::handle_heartbeat(common::NodeId /*caller*/,
                                const serial::BufferChain& body,
                                rmi::Replier replier) {
  const auto request = proto::HeartbeatRequest::decode(body);
  proto::HeartbeatReply reply;
  if (request.term >= term_) {
    become_follower(request.term, request.leader);
    arm_timeout();
    reply.ok = true;
  }
  reply.term = term_;
  replier.ok(reply.encode());
}

}  // namespace mage::rts
