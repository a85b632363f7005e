// Client-side partition table: one node's routing view of a distributed
// collection.
//
// The table does not speak the protocol itself — routing rides entirely on
// the rts::AsyncClient facade.  `route()` consults the facade's best local
// knowledge (local binding, forwarding address, static-directory home);
// the facade's chase machinery (Moved hints, epoch fences, async lookup
// walk) is what actually repairs a route when a partition relocates
// mid-operation.  The table's job is the
// name/index bookkeeping plus observability: it counts how often a
// partition's believed host changed under it ("rts.dist_table_repairs"),
// which is the client-visible footprint of rebalancing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "rts/async_client.hpp"

namespace mage::rts::dist {

class PartitionTable {
 public:
  PartitionTable(AsyncClient& client, std::string base,
                 std::size_t partitions);

  PartitionTable(const PartitionTable&) = delete;
  PartitionTable& operator=(const PartitionTable&) = delete;

  [[nodiscard]] const std::string& base() const { return base_; }
  [[nodiscard]] std::size_t partitions() const { return names_.size(); }
  [[nodiscard]] const std::string& name_of(std::size_t index) const {
    return names_[index];
  }

  // Best-known host for a partition — no network traffic.  Records a
  // repair when the answer differs from what this table last handed out
  // (the partition moved and a hint/lookup taught the facade).
  common::NodeId route(std::size_t index);

  [[nodiscard]] std::int64_t repairs() const { return repairs_observed_; }

 private:
  AsyncClient& client_;
  std::string base_;
  std::vector<std::string> names_;
  std::vector<common::NodeId> cached_;
  std::int64_t repairs_observed_ = 0;
  std::int64_t* repairs_;  // "rts.dist_table_repairs"
};

}  // namespace mage::rts::dist
