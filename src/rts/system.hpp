// MageSystem: boots a whole MAGE federation in one simulation.
//
// Owns the simulation universe (clock, RNG, stats), the network, the
// process-wide ClassWorld and static Directory, and one (Transport,
// MageServer, MageClient) triple per namespace.  Figure 6 of the paper —
// cooperating JVMs, each with a Mage registry, server objects and bound
// mobility attributes — corresponds to one MageSystem with N nodes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "rts/client.hpp"
#include "rts/directory.hpp"
#include "rts/server.hpp"
#include "sim/simulation.hpp"

namespace mage::rts {

class MageSystem {
 public:
  explicit MageSystem(net::CostModel model = net::CostModel::jdk122_classic(),
                      std::uint64_t seed = 0x6D616765u);

  MageSystem(const MageSystem&) = delete;
  MageSystem& operator=(const MageSystem&) = delete;

  // Adds a namespace/VM; returns its node id.  Call before using clients.
  common::NodeId add_node(const std::string& label);

  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] ClassWorld& world() { return world_; }
  [[nodiscard]] Directory& directory() { return directory_; }
  [[nodiscard]] common::StatsRegistry& stats() { return sim_.stats(); }

  // server, client, transport, install_class and assign_domain throw
  // MageError, naming the node, unless it is on this system.
  [[nodiscard]] MageServer& server(common::NodeId node);
  [[nodiscard]] MageClient& client(common::NodeId node);
  [[nodiscard]] rmi::Transport& transport(common::NodeId node);

  [[nodiscard]] std::vector<common::NodeId> nodes() const {
    return network_.node_ids();
  }

  // Installs a class image on a node "at deployment time" (it is on the
  // node's classpath rather than shipped at runtime).
  void install_class(common::NodeId node, const std::string& class_name);

  // Installs a class image on every node.
  void install_class_everywhere(const std::string& class_name);

  // --- administrative domains (Section 7's WAN vision) ---------------------

  // Assigns a node to a named domain and re-derives inter-domain link
  // latencies: links whose endpoints are in different domains get the
  // extra one-way latency configured by set_interdomain_latency.
  void assign_domain(common::NodeId node, const std::string& domain);

  // Extra one-way latency for every cross-domain link (default 0).
  void set_interdomain_latency(common::SimDuration extra_us);

  [[nodiscard]] std::vector<common::NodeId> nodes_in_domain(
      const std::string& domain) const;

  // Marks every server's engine warm (for logic tests and the amortized
  // halves of benches that model a long-running federation).
  void warm_all();

  // Human-readable dump of the whole federation: per-node registries,
  // forwards, class caches — the executable analogue of Figure 6.
  [[nodiscard]] std::string describe() const;

 private:
  struct NodeRuntime {
    std::unique_ptr<rmi::Transport> transport;
    std::unique_ptr<MageServer> server;
    std::unique_ptr<MageClient> client;
  };

  // The node's runtime; throws, naming `what` and the node, unless the node
  // is on this system.
  [[nodiscard]] NodeRuntime& runtime(common::NodeId node, const char* what);
  void refresh_domain_latencies();

  sim::Simulation sim_;
  net::Network network_;
  ClassWorld world_;
  Directory directory_;
  std::vector<NodeRuntime> runtimes_;
  std::uint64_t next_activity_ = 1;
  common::SimDuration interdomain_latency_us_ = 0;
};

}  // namespace mage::rts
