// "snake"-style workload: disk blocks from a file server.
//
// HP's snake trace was captured beneath a small 5 MB buffer cache on a
// file server.  Compared with cello, far less locality was absorbed by
// the first-level cache (it was 6x smaller), so the disk-level stream
// keeps both heavy sequentiality (client file reads) and substantial
// medium-range reuse (hot files re-missing the small cache) — the paper
// measures 61.5 % prediction accuracy and sees both next-limit and tree
// help.
//
// The generator emits an application-level stream of many client mounts
// reading whole files with Zipf popularity, plus metadata traffic; the
// workload factory streams it through trace::L1Filter(5 MB).
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"
#include "util/prng.hpp"
#include "util/zipf.hpp"

namespace pfp::trace {

class FileServerGenerator {
 public:
  struct Config {
    std::uint64_t references = 700'000;  ///< raw (pre-filter) records
    std::uint64_t seed = 1994;

    std::uint64_t files = 5'000;
    double popularity_skew = 1.20;
    double size_mu = 3.2;                ///< lognormal file size (blocks)
    double size_sigma = 1.1;
    std::uint64_t max_file_blocks = 1'024;

    std::uint32_t clients = 12;          ///< concurrently active clients
    double switch_prob = 0.18;           ///< interleave between clients
    double partial_read_prob = 0.15;
    double metadata_prob = 0.06;
    std::uint64_t metadata_blocks = 3'000;
    double metadata_skew = 1.1;
  };

  /// The record loop as a pull source: each next() is one loop iteration
  /// and emits exactly one raw record.  The stream never depends on
  /// Config::references, so any prefix of it is the generate() output of
  /// that length.
  class Source {
   public:
    explicit Source(const Config& config);

    TraceRecord next();

   private:
    struct ClientState {
      std::uint64_t file = 0;
      std::uint64_t position = 0;
      std::uint64_t limit = 0;
      bool open = false;
    };

    Config config_;
    util::Xoshiro256 rng_;
    std::vector<std::uint64_t> file_size_;
    std::vector<std::uint64_t> file_base_;
    util::ZipfSampler pick_file_;
    util::ZipfSampler pick_meta_;
    std::vector<ClientState> clients_;
    std::uint32_t current_ = 0;
  };

  explicit FileServerGenerator(Config config);

  /// The first Config::references records of Source(config()).
  [[nodiscard]] Trace generate() const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  Config config_;
};

}  // namespace pfp::trace
