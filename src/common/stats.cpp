#include "common/stats.hpp"

#include <sstream>

namespace mage::common {

void StatsRegistry::add(const std::string& key, std::int64_t delta) {
  counters_[key] += delta;
}

std::int64_t StatsRegistry::counter(const std::string& key) const {
  auto it = counters_.find(key);
  return it == counters_.end() ? 0 : it->second;
}

void StatsRegistry::reset() {
  // Zero in place rather than erase: counter_handle() pointers stay valid.
  for (auto& [key, value] : counters_) value = 0;
}

std::string StatsRegistry::to_string() const {
  std::ostringstream os;
  for (const auto& [key, value] : counters_) {
    os << key << " = " << value << '\n';
  }
  return os.str();
}

}  // namespace mage::common
