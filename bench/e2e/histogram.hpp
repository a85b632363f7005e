// Fixed-size log-linear latency histogram.
//
// Values below 256 get one bucket each; above that every power of two is
// split into 128 equal sub-buckets, so a reported value (the bucket's
// midpoint) is within 1/256 of every sample in its bucket — well inside the
// 1% error the benchmark promises.  The size never depends on the sample
// count, two histograms merge by adding counts, and equality is exact,
// which is how the benchmark proves a 4-worker run saw the same latencies
// as a 1-worker run.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace e2e {

class LatencyHistogram {
 public:
  void record(std::int64_t value) {
    ++counts_[index(value)];
    ++total_;
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  [[nodiscard]] std::uint64_t count() const { return total_; }

  // Midpoint of the bucket holding the ceil(q * count)-th smallest sample;
  // 0 when empty.
  [[nodiscard]] std::int64_t quantile(double q) const {
    const std::size_t i = quantile_bucket(q);
    if (i == kBuckets) return 0;
    return lower(i) + (width(i) - 1) / 2;
  }

  // Samples at or above the bucket quantile(q) reports: the tail the
  // percentile rests on.  (Above it alone can be empty — a storm whose
  // calls all queue alike has only a few distinct latencies.)
  [[nodiscard]] std::uint64_t tail_samples(double q) const {
    const std::size_t i = quantile_bucket(q);
    std::uint64_t n = 0;
    for (std::size_t j = i; j < kBuckets; ++j) n += counts_[j];
    return n;
  }

  bool operator==(const LatencyHistogram&) const = default;

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::int64_t kSub = std::int64_t{1} << kSubBits;  // 128
  static constexpr std::int64_t kLinear = kSub * 2;                  // 256
  static constexpr std::size_t kOctaves = 48;  // up to 2^56 simulated us
  static constexpr std::size_t kBuckets = kLinear + kOctaves * kSub;

  static std::size_t index(std::int64_t v) {
    if (v < kLinear) return v < 0 ? 0 : static_cast<std::size_t>(v);
    const int msb = std::bit_width(static_cast<std::uint64_t>(v)) - 1;
    const int shift = msb - kSubBits;
    const std::size_t i = static_cast<std::size_t>(
        kLinear + (msb - kSubBits - 1) * kSub + ((v >> shift) - kSub));
    return i < kBuckets ? i : kBuckets - 1;
  }

  static std::int64_t lower(std::size_t i) {
    if (i < static_cast<std::size_t>(kLinear)) {
      return static_cast<std::int64_t>(i);
    }
    const std::size_t j = i - kLinear;
    const int shift = static_cast<int>(j / kSub) + 1;
    return (kSub + static_cast<std::int64_t>(j % kSub)) << shift;
  }

  static std::int64_t width(std::size_t i) {
    if (i < static_cast<std::size_t>(kLinear)) return 1;
    return std::int64_t{1} << (static_cast<int>((i - kLinear) / kSub) + 1);
  }

  // kBuckets when empty.
  [[nodiscard]] std::size_t quantile_bucket(double q) const {
    if (total_ == 0) return kBuckets;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total_)));
    const std::uint64_t target = rank < 1 ? 1 : rank;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= target) return i;
    }
    return kBuckets - 1;
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace e2e
