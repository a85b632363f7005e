// Counters used by the benchmark harnesses.
//
// Every layer of the reproduction (network, RMI, runtime, mobility
// attributes) records into a StatsRegistry owned by the simulation, so a
// bench can ask "how many RMI calls did one TREV bind cost?" — the quantity
// the paper uses to explain Table 3 ("REV involves four Java RMI calls").
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace mage::common {

// Named counters.  Keys are hierarchical strings ("net.messages_sent",
// "rmi.calls", "rts.migrations").
class StatsRegistry {
 public:
  void add(const std::string& key, std::int64_t delta = 1);

  // Stable pointer to the counter's slot, for hot paths that bump the same
  // counter millions of times (map nodes never move; reset() zeroes values
  // in place rather than erasing nodes, so handles stay valid).
  [[nodiscard]] std::int64_t* counter_handle(const std::string& key) {
    return &counters_[key];
  }

  // Bumps the counter behind `slot`, taking the handle on first use: a
  // path never taken adds no zero-valued key to the dump, as with add().
  void bump(std::int64_t*& slot, const char* key) {
    if (slot == nullptr) slot = counter_handle(key);
    ++*slot;
  }

  [[nodiscard]] std::int64_t counter(const std::string& key) const;

  [[nodiscard]] const std::map<std::string, std::int64_t>& counters() const {
    return counters_;
  }

  void reset();

  // Multi-line human-readable dump, used by the fig6 system bench.
  [[nodiscard]] std::string to_string() const;

 private:
  std::map<std::string, std::int64_t> counters_;
};

}  // namespace mage::common
