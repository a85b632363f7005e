#include "rts/dist/partition_table.hpp"

#include <utility>

#include "rts/dist/layout.hpp"

namespace mage::rts::dist {

PartitionTable::PartitionTable(AsyncClient& client, std::string base,
                               std::size_t partitions)
    : client_(client),
      base_(std::move(base)),
      repairs_(client.simulation().stats().counter_handle(
          "rts.dist_table_repairs")) {
  names_.reserve(partitions);
  for (std::size_t i = 0; i < partitions; ++i) {
    names_.push_back(partition_name(base_, i));
  }
  cached_.assign(partitions, common::kNoNode);
}

common::NodeId PartitionTable::route(std::size_t index) {
  const common::NodeId now = client_.believed_host(names_[index]);
  if (now == common::kNoNode) return cached_[index];
  if (cached_[index] != common::kNoNode && cached_[index] != now) {
    ++repairs_observed_;
    ++*repairs_;
  }
  cached_[index] = now;
  return now;
}

}  // namespace mage::rts::dist
