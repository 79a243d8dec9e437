// Log2 histogram for trace characterization (reuse distances).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pfp::util {

/// Power-of-two bucketed histogram for unbounded non-negative integer
/// quantities (reuse distances, run lengths).  Bucket i holds values in
/// [2^(i-1), 2^i), bucket 0 holds the value 0 and 1 separately folded.
class Log2Histogram {
 public:
  void add(std::uint64_t x, std::uint64_t weight = 1);

  [[nodiscard]] std::size_t buckets() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const;
  /// Inclusive lower bound of bucket i.
  static std::uint64_t bucket_lo(std::size_t i) noexcept;
  /// Inclusive upper bound of bucket i.
  static std::uint64_t bucket_hi(std::size_t i) noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Render as "lo-hi: count" lines for reports.
  [[nodiscard]] std::string to_string() const;

  /// Folds another histogram in (per-shard aggregation); grows to the
  /// wider of the two bucket sets.
  void merge(const Log2Histogram& other);

  void reset();

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace pfp::util
