// Target-selection policies for user-defined mobility attributes.
//
// The paper's Section 3.1 example defines a migration policy from load:
//
//     public Remote bind() {
//       if ( cloc.getLoad() > 100 ) {
//         target = selectNewHost();
//         ...
//
// These policies are the selectNewHost() building blocks.  Querying a
// remote node's load is a real protocol round trip (get_load), exactly as
// it would be in the Java system.
#pragma once

#include <vector>

#include "common/ids.hpp"
#include "rts/client.hpp"

namespace mage::core {

class TargetPolicy {
 public:
  virtual ~TargetPolicy() = default;

  // Picks a computation target among `candidates` (must be non-empty).
  [[nodiscard]] virtual common::NodeId select(
      rts::MageClient& client,
      const std::vector<common::NodeId>& candidates) = 0;
};

// Queries every candidate's load and picks the least loaded (ties broken
// by lower node id, deterministically).
class LeastLoadedPolicy : public TargetPolicy {
 public:
  [[nodiscard]] common::NodeId select(
      rts::MageClient& client,
      const std::vector<common::NodeId>& candidates) override;
};

// Cycles through the candidates.
class RoundRobinPolicy : public TargetPolicy {
 public:
  [[nodiscard]] common::NodeId select(
      rts::MageClient& client,
      const std::vector<common::NodeId>& candidates) override;

 private:
  std::size_t next_ = 0;
};

// Uniformly random candidate, drawn from the calling node's own stream
// (MageClient::node_rng).
class RandomPolicy : public TargetPolicy {
 public:
  [[nodiscard]] common::NodeId select(
      rts::MageClient& client,
      const std::vector<common::NodeId>& candidates) override;
};

// The paper's §3.1 policy: stay where the component is unless the current
// host's load exceeds `threshold`, then offload to the least loaded
// candidate.
class LoadThresholdPolicy : public TargetPolicy {
 public:
  explicit LoadThresholdPolicy(double threshold, common::NodeId current)
      : threshold_(threshold), current_(current) {}

  [[nodiscard]] common::NodeId select(
      rts::MageClient& client,
      const std::vector<common::NodeId>& candidates) override;

  void set_current(common::NodeId current) { current_ = current; }

 private:
  double threshold_;
  common::NodeId current_;
  LeastLoadedPolicy fallback_;
};

}  // namespace mage::core
