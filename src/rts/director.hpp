// Replicated directory service ("directors") + its client.
//
// The static rts::Directory is deployment-time bootstrap: a table every
// node is born with.  It has no availability story — if a component's home
// crashes and its forwarding chain dies with it, a static entry pointing
// at the dead home is a dead end.  The director quorum is the
// high-availability layer on top:
//
//   * N director nodes each hold a full copy of the placement records
//     (name -> host @ epoch);
//   * one of them is leader (rts::Election, deterministic in sim time);
//   * writes (dir.announce) go to the leader, which applies and replicates
//     them to the followers (dir.replicate, fire-and-forget — epoch-fenced
//     records are idempotent, so replication needs no ordering or acks:
//     the highest epoch wins no matter the arrival order);
//   * reads (dir.resolve) are answered by ANY member from its local copy.
//     A follower's copy may trail the leader by an in-flight replication,
//     which the reader's own epoch fence detects (AsyncClient ignores
//     resolutions older than what it has already confirmed).
//
// A non-leader answers an announce with Moved + its leader hint, which
// DirectoryClient's member sweep chases.  The whole subsystem is opt-in:
// nothing instantiates a Director unless the test/bench builds one, so
// existing deployments keep their pure static-directory behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "rmi/transport.hpp"
#include "rts/election.hpp"
#include "rts/protocol.hpp"

namespace mage::rts {

// One member of the director quorum; lives on its own node's transport.
class Director {
 public:
  Director(rmi::Transport& transport, std::vector<common::NodeId> members);

  Director(const Director&) = delete;
  Director& operator=(const Director&) = delete;

  // Registers the directory services and starts the election.  Call once,
  // before the simulation runs.
  void start();

  [[nodiscard]] Election& election() { return election_; }
  [[nodiscard]] common::NodeId self() const { return transport_.self(); }

  // Driver-side bootstrap: installs a record before the run starts (the
  // deployment-time equivalent of the static Directory's initial table).
  // Seed every member identically.
  void seed(const proto::PlacementRecord& record);

  [[nodiscard]] const std::map<common::ComponentName, proto::PlacementRecord>&
  records() const {
    return records_;
  }

 private:
  // Applies a record iff it is newer than what we hold; returns the epoch
  // now stored under that name.
  std::uint64_t apply(const proto::PlacementRecord& record);
  void replicate(const proto::PlacementRecord& record);
  void handle_announce(common::NodeId caller, const serial::BufferChain& body,
                       rmi::Replier replier);
  void handle_resolve(common::NodeId caller, const serial::BufferChain& body,
                      rmi::Replier replier);
  [[nodiscard]] sim::Simulation& sim();

  rmi::Transport& transport_;
  Election election_;
  std::map<common::ComponentName, proto::PlacementRecord> records_;
  std::int64_t* announces_;     // "rts.dir_announces"
  std::int64_t* resolves_;      // "rts.dir_resolves"
  std::int64_t* replications_;  // "rts.dir_replications"
};

// Client-side view of the quorum: resolve/announce with leader-chasing
// failover.  One per node that needs HA naming.
//
// Each call is a member sweep: any member may answer; a verdict accepts a
// reply or names the member to try next (a leader redirect); the list is
// swept starting from the last member that answered, in up to 8 rounds
// with a flat 4ms pause between rounds, each attempt 2ms x 2 same-id
// transmissions.  Every step past a member counts
// "rmi.directory_failovers", and a call that failed over adds its sim-time
// cost to "rmi.directory_failover_time_us".
class DirectoryClient {
 public:
  struct Resolution {
    common::NodeId host = common::kNoNode;
    std::uint64_t epoch = 0;
  };

  DirectoryClient(rmi::Transport& transport,
                  std::vector<common::NodeId> directors);

  // Asynchronous resolve: `done(resolution)` fires exactly once; nullopt
  // when no reachable member has a record (or the quorum is unreachable).
  void resolve(const common::ComponentName& name,
               std::function<void(std::optional<Resolution>)> done);

  // Asynchronous announce: `done(accepted)` fires exactly once.
  void announce(const proto::PlacementRecord& record,
                std::function<void(bool)> done);

  // Synchronous variants for driver-side code: wait for the group call
  // through Transport::block_until, so a network with more than one shard
  // throws its named MageError.
  std::optional<Resolution> resolve_sync(const common::ComponentName& name);
  bool announce_sync(const proto::PlacementRecord& record);

  // Steers the next sweep (tests use this to start at a known-dead member;
  // normal operation learns the leader from replies).  Ignored for a node
  // that is not a director.
  void set_preferred(common::NodeId node);

 private:
  // Accepts a member's reply body, or rejects it, leaving `redirect`
  // naming the member to try next (kNoNode: the next in the list).
  using Verdict = bool (*)(common::NodeId target,
                           const serial::BufferChain& reply,
                           common::NodeId& redirect);
  struct Sweep;

  void start_sweep(common::VerbId verb, serial::BufferChain body,
                   Verdict verdict, rmi::Transport::Callback done);
  void attempt(const std::shared_ptr<Sweep>& sweep);
  void advance(const std::shared_ptr<Sweep>& sweep, common::NodeId redirect);
  [[nodiscard]] std::size_t index_of(common::NodeId node) const;

  rmi::Transport& transport_;
  sim::Simulation& sim_;
  std::vector<common::NodeId> directors_;
  common::NodeId preferred_;
  std::int64_t* failovers_;  // "rmi.directory_failovers"
};

}  // namespace mage::rts
