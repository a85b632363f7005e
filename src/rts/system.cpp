#include "rts/system.hpp"

#include <sstream>

namespace mage::rts {

MageSystem::MageSystem(net::CostModel model, std::uint64_t seed)
    : sim_(seed), network_(sim_, model) {}

common::NodeId MageSystem::add_node(const std::string& label) {
  const common::NodeId id = network_.add_node(label);
  NodeRuntime runtime;
  runtime.transport = std::make_unique<rmi::Transport>(network_, id);
  runtime.server =
      std::make_unique<MageServer>(*runtime.transport, world_, directory_);
  runtime.client = std::make_unique<MageClient>(
      *runtime.transport, *runtime.server, directory_, world_,
      common::ActivityId{next_activity_++});
  runtimes_.push_back(std::move(runtime));
  return id;
}

MageSystem::NodeRuntime& MageSystem::runtime(common::NodeId node,
                                             const char* what) {
  network_.require_node(node, what);
  return runtimes_[node.value() - 1];
}

MageServer& MageSystem::server(common::NodeId node) {
  return *runtime(node, "server").server;
}

MageClient& MageSystem::client(common::NodeId node) {
  return *runtime(node, "client").client;
}

rmi::Transport& MageSystem::transport(common::NodeId node) {
  return *runtime(node, "transport").transport;
}

void MageSystem::install_class(common::NodeId node,
                               const std::string& class_name) {
  runtime(node, "install_class").server->class_cache().install(class_name);
}

void MageSystem::install_class_everywhere(const std::string& class_name) {
  for (auto node : nodes()) install_class(node, class_name);
}

void MageSystem::assign_domain(common::NodeId node,
                               const std::string& domain) {
  network_.require_node(node, "assign_domain");
  network_.set_domain(node, domain);
  refresh_domain_latencies();
}

void MageSystem::set_interdomain_latency(common::SimDuration extra_us) {
  interdomain_latency_us_ = extra_us;
  refresh_domain_latencies();
}

void MageSystem::refresh_domain_latencies() {
  for (auto a : nodes()) {
    for (auto b : nodes()) {
      if (a == b) continue;
      const bool cross = network_.domain(a) != network_.domain(b);
      network_.set_extra_latency(a, b,
                                 cross ? interdomain_latency_us_ : 0);
    }
  }
}

std::vector<common::NodeId> MageSystem::nodes_in_domain(
    const std::string& domain) const {
  std::vector<common::NodeId> members;
  for (auto node : network_.node_ids()) {
    if (network_.domain(node) == domain) members.push_back(node);
  }
  return members;
}

void MageSystem::warm_all() {
  for (auto node : nodes()) server(node).set_warmed(true);
}

std::string MageSystem::describe() const {
  std::ostringstream os;
  os << "MAGE federation: " << runtimes_.size() << " namespaces, "
     << directory_.size() << " components announced\n";
  for (std::uint32_t i = 1; i <= runtimes_.size(); ++i) {
    const common::NodeId id{i};
    const NodeRuntime& rt = runtimes_[i - 1];
    os << "  [" << network_.label(id) << "] node " << i << ":";
    os << " objects={";
    bool first = true;
    for (const auto& name : rt.server->registry().local_names()) {
      os << (first ? "" : ", ") << name;
      first = false;
    }
    os << "} classes_cached=" << rt.server->class_cache().size()
       << (rt.server->warmed() ? " warm" : " cold") << "\n";
  }
  return os.str();
}

}  // namespace mage::rts
