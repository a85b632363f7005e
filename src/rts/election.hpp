// Deterministic leader election for the director quorum.
//
// A Raft-style election stripped to what a replicated *directory* needs:
// terms, randomized election timeouts, majority votes, and heartbeats —
// but no replicated log (placement records are epoch-fenced idempotent
// writes, so the directory state machine converges without log ordering;
// see director.hpp).
//
// Everything runs in simulated time on fixed timing: a leader heartbeats
// every 1.5 ms, and a member's election timeout is 4 ms plus a draw below
// 4 ms from the member's own node stream (Network::node_rng) — so a
// 5-member election under partitions and crashes replays bit-identically
// at any worker count and under any node:shard mapping, for a given seed.
// Timers are generation-counted rather than cancelled: re-arming bumps
// `timeout_gen_`, and a stale timer firing with an old generation is a
// no-op.
//
// A crashed member's timers keep firing locally (the network refuses its
// messages, the process model does not stop its clock).  That is
// deliberate: it keeps the event stream deterministic, and it reproduces
// the classic rejoin behavior — a revived member comes back with a high
// term and forces one re-election, which the chaos tests count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "rmi/transport.hpp"
#include "rts/protocol.hpp"

namespace mage::rts {

class Election {
 public:
  enum class Role { Follower, Candidate, Leader };

  // `members` is the full quorum (including self), identical on every
  // member — the majority threshold is members/2 + 1.
  Election(rmi::Transport& transport, std::vector<common::NodeId> members);

  Election(const Election&) = delete;
  Election& operator=(const Election&) = delete;

  // Registers the vote/heartbeat services and arms the first election
  // timeout.  Call once, before the simulation runs.
  void start();

  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] std::uint64_t term() const { return term_; }
  [[nodiscard]] bool is_leader() const { return role_ == Role::Leader; }
  // Best known leader: self when leading, the heartbeat source when
  // following one, kNoNode while an election is unresolved.
  [[nodiscard]] common::NodeId leader_hint() const { return leader_; }
  [[nodiscard]] const std::vector<common::NodeId>& members() const {
    return members_;
  }

 private:
  void arm_timeout();
  void on_timeout(std::uint64_t gen);
  void start_election();
  void become_leader();
  void become_follower(std::uint64_t term, common::NodeId leader);
  void send_heartbeats();
  void schedule_heartbeat(std::uint64_t gen);
  void handle_request_vote(common::NodeId caller,
                           const serial::BufferChain& body,
                           rmi::Replier replier);
  void handle_heartbeat(common::NodeId caller, const serial::BufferChain& body,
                        rmi::Replier replier);
  [[nodiscard]] sim::Simulation& sim();
  [[nodiscard]] common::NodeId self() const { return transport_.self(); }
  [[nodiscard]] int majority() const {
    return static_cast<int>(members_.size()) / 2 + 1;
  }

  rmi::Transport& transport_;
  std::vector<common::NodeId> members_;

  Role role_ = Role::Follower;
  std::uint64_t term_ = 0;
  common::NodeId voted_for_ = common::kNoNode;
  common::NodeId leader_ = common::kNoNode;
  int votes_ = 0;
  common::SimTime election_start_ = 0;

  // Generation counters: bumping one invalidates every outstanding timer
  // of that family (cheaper and simpler than cancel bookkeeping).
  std::uint64_t timeout_gen_ = 0;
  std::uint64_t heartbeat_gen_ = 0;

  std::int64_t* elections_held_;  // "rts.elections_held"
  std::int64_t* leader_changes_;  // "rts.leader_changes"
};

}  // namespace mage::rts
