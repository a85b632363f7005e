#include "rts/dist/rebalancer.hpp"

#include <algorithm>
#include <utility>

namespace mage::rts::dist {

Rebalancer::Rebalancer(net::Network& net, AsyncClient& prober,
                       AsyncClient& mover, std::vector<common::NodeId> nodes,
                       Config config)
    : net_(net),
      prober_(prober),
      mover_(mover),
      nodes_(std::move(nodes)),
      config_(std::move(config)),
      self_(mover.self()),
      tick_counter_(
          mover.simulation().stats().counter_handle("rts.rebalance_ticks")),
      move_counter_(
          mover.simulation().stats().counter_handle("rts.rebalance_moves")),
      steal_counter_(
          mover.simulation().stats().counter_handle("rts.lifeline_steals")) {}

sim::Simulation& Rebalancer::sim() { return mover_.simulation(); }

void Rebalancer::start() {
  // A rebalancer started mid-run ticks at once rather than in the past.
  sim().schedule_at(std::max(config_.start_at_us, sim().now()),
                    [this] { tick(); });
}

void Rebalancer::reschedule() {
  if (config_.max_ticks >= 0 && ticks_done_ >= config_.max_ticks) return;
  sim().schedule_after(config_.tick_us, [this] { tick(); });
}

void Rebalancer::tick() {
  ++ticks_done_;
  ++*tick_counter_;
  // Never stack rounds: a round still chasing probes through a fault
  // window keeps its claim; this tick just reschedules.
  if (!in_flight_) {
    in_flight_ = true;
    if (config_.lifeline) {
      lifeline_round();
    } else {
      central_round();
    }
  }
  reschedule();
}

void Rebalancer::central_round() {
  std::vector<MageFuture<double>> probes;
  probes.reserve(nodes_.size());
  for (const auto node : nodes_) probes.push_back(prober_.load_of(node));
  when_all(probes)
      .then([this](std::vector<double>& loads) {
        std::size_t hot = 0;
        std::size_t cool = 0;
        for (std::size_t i = 1; i < loads.size(); ++i) {
          if (loads[i] > loads[hot]) hot = i;
          if (loads[i] < loads[cool]) cool = i;
        }
        if (hot == cool || loads[hot] <= config_.min_load ||
            loads[hot] - loads[cool] <= config_.skew_margin) {
          round_done();
          return;
        }
        steal(nodes_[hot], nodes_[cool], config_.max_moves_per_tick);
      })
      .on_error([this](const std::string&) {
        // A probe round that lost a node is skipped; next tick re-polls.
        round_done();
      });
}

void Rebalancer::lifeline_round() {
  // My own load is shard-local state — no probe needed.
  if (net_.load(self_) > config_.idle_ceiling || config_.buddies.empty()) {
    round_done();
    return;
  }
  std::vector<MageFuture<double>> probes;
  probes.reserve(config_.buddies.size());
  for (const auto buddy : config_.buddies) {
    probes.push_back(prober_.load_of(buddy));
  }
  when_all(probes)
      .then([this](std::vector<double>& loads) {
        std::size_t hot = 0;
        for (std::size_t i = 1; i < loads.size(); ++i) {
          if (loads[i] > loads[hot]) hot = i;
        }
        const double mine = net_.load(self_);
        if (loads[hot] <= config_.min_load ||
            loads[hot] - mine <= config_.skew_margin) {
          round_done();
          return;
        }
        steal(config_.buddies[hot], self_, config_.max_moves_per_tick);
      })
      .on_error([this](const std::string&) { round_done(); });
}

void Rebalancer::steal(common::NodeId victim, common::NodeId target,
                       int budget) {
  if (victim == target) {
    round_done();
    return;
  }
  prober_.manifest(victim, config_.prefix)
      .then([this, target,
             budget](std::vector<std::pair<std::string, std::uint64_t>>&
                         entries) {
        int moved = 0;
        // Manifest entries arrive in registry (lexicographic) order — the
        // pick is deterministic given the victim's state.
        for (const auto& [name, epoch] : entries) {
          (void)epoch;
          if (moved >= budget) break;
          ++moved;
          ++moves_issued_;
          ++*move_counter_;
          if (config_.lifeline) ++*steal_counter_;
          // Best-effort: a move that raced another mover or a fault window
          // is just skipped; the load signal will re-trigger if it still
          // matters.
          mover_.move(name, target).on_error([](const std::string&) {});
        }
        round_done();
      })
      .on_error([this](const std::string&) { round_done(); });
}

}  // namespace mage::rts::dist
