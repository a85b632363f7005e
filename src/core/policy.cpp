#include "core/policy.hpp"

#include "common/error.hpp"

namespace mage::core {

common::NodeId LeastLoadedPolicy::select(
    rts::MageClient& client,
    const std::vector<common::NodeId>& candidates) {
  if (candidates.empty()) {
    throw common::MageError("LeastLoadedPolicy: no candidates");
  }
  common::NodeId best = candidates.front();
  double best_load = client.load_of(best);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const double load = client.load_of(candidates[i]);
    if (load < best_load ||
        (load == best_load && candidates[i] < best)) {
      best = candidates[i];
      best_load = load;
    }
  }
  return best;
}

common::NodeId RoundRobinPolicy::select(
    rts::MageClient& client, const std::vector<common::NodeId>& candidates) {
  (void)client;
  if (candidates.empty()) {
    throw common::MageError("RoundRobinPolicy: no candidates");
  }
  return candidates[next_++ % candidates.size()];
}

common::NodeId RandomPolicy::select(
    rts::MageClient& client, const std::vector<common::NodeId>& candidates) {
  if (candidates.empty()) {
    throw common::MageError("RandomPolicy: no candidates");
  }
  const auto index = client.node_rng().next_below(candidates.size());
  return candidates[index];
}

common::NodeId LoadThresholdPolicy::select(
    rts::MageClient& client, const std::vector<common::NodeId>& candidates) {
  if (client.load_of(current_) <= threshold_) return current_;
  return fallback_.select(client, candidates);
}

}  // namespace mage::core
