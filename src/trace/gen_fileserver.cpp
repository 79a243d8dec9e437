#include "trace/gen_fileserver.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace pfp::trace {

FileServerGenerator::FileServerGenerator(Config config) : config_(config) {
  PFP_REQUIRE(config_.files >= 1);
  PFP_REQUIRE(config_.clients >= 1);
  PFP_REQUIRE(config_.max_file_blocks >= 1);
}

FileServerGenerator::Source::Source(const Config& config)
    : config_(config),
      rng_(config.seed),
      file_size_(config.files),
      file_base_(config.files),
      pick_file_(config.files, config.popularity_skew),
      pick_meta_(config.metadata_blocks, config.metadata_skew),
      clients_(config.clients) {
  std::uint64_t next_base = config_.metadata_blocks;
  for (std::uint64_t f = 0; f < config_.files; ++f) {
    const double raw = rng_.lognormal(config_.size_mu, config_.size_sigma);
    const auto blocks = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(raw) + 1, 1, config_.max_file_blocks);
    file_size_[f] = blocks;
    file_base_[f] = next_base;
    next_base += blocks;
  }
}

TraceRecord FileServerGenerator::Source::next() {
  if (rng_.bernoulli(config_.switch_prob)) {
    current_ = static_cast<std::uint32_t>(rng_.below(config_.clients));
  }
  ClientState& st = clients_[current_];
  if (!st.open) {
    st.file = pick_file_(rng_);
    st.position = 0;
    st.limit = file_size_[st.file];
    if (rng_.bernoulli(config_.partial_read_prob) && st.limit > 1) {
      st.limit = 1 + rng_.below(st.limit);
    }
    st.open = true;
    return TraceRecord{pick_meta_(rng_), current_};  // lookup before data
  }
  if (rng_.bernoulli(config_.metadata_prob)) {
    return TraceRecord{pick_meta_(rng_), current_};
  }
  const BlockId block = file_base_[st.file] + st.position;
  ++st.position;
  if (st.position >= st.limit) {
    st.open = false;
  }
  return TraceRecord{block, current_};
}

Trace FileServerGenerator::generate() const {
  Source source(config_);
  Trace trace("snake-raw");
  trace.reserve(config_.references);
  for (std::uint64_t i = 0; i < config_.references; ++i) {
    trace.push_back(source.next());
  }
  return trace;
}

}  // namespace pfp::trace
