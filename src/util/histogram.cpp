#include "util/histogram.hpp"

#include <bit>
#include <sstream>

namespace pfp::util {

void Log2Histogram::add(std::uint64_t x, std::uint64_t weight) {
  const std::size_t bucket =
      x == 0 ? 0 : static_cast<std::size_t>(std::bit_width(x));
  if (bucket >= counts_.size()) {
    counts_.resize(bucket + 1, 0);
  }
  counts_[bucket] += weight;
  total_ += weight;
}

std::uint64_t Log2Histogram::bucket_count(std::size_t i) const {
  return i < counts_.size() ? counts_[i] : 0;
}

std::uint64_t Log2Histogram::bucket_lo(std::size_t i) noexcept {
  return i == 0 ? 0 : (1ULL << (i - 1));
}

std::uint64_t Log2Histogram::bucket_hi(std::size_t i) noexcept {
  return i == 0 ? 0 : (1ULL << i) - 1;
}

std::string Log2Histogram::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) {
      continue;
    }
    os << bucket_lo(i) << "-" << bucket_hi(i) << ": " << counts_[i] << "\n";
  }
  return os.str();
}

void Log2Histogram::merge(const Log2Histogram& other) {
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

void Log2Histogram::reset() {
  counts_.clear();
  total_ = 0;
}

}  // namespace pfp::util
