// "cello"-style workload: disk blocks from a timesharing system.
//
// HP's cello trace (Ruemmler & Wilkes) was collected beneath a 30 MB file
// buffer cache on a busy timesharing machine.  Two consequences the paper
// leans on: (1) most short-range locality was absorbed by that first-level
// cache, so the residual stream predicts poorly (35.8 % accuracy, Table 2)
// and second-level miss rates stay high (~76 % even with prefetching,
// Table 4); (2) what does survive is dominated by long sequential runs
// (cold file reads) plus scattered re-misses, so one-block-lookahead still
// helps while the tree helps less.
//
// The generator emits the *application-level* stream of many interleaved
// processes — private working-set reuse, shared-region reuse, sequential
// runs and cold scans — and the workload factory streams it through
// trace::L1Filter sized like the original 30 MB cache.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"
#include "util/prng.hpp"
#include "util/zipf.hpp"

namespace pfp::trace {

class TimeshareGenerator {
 public:
  struct Config {
    std::uint64_t references = 900'000;  ///< raw (pre-filter) records
    std::uint64_t seed = 1992;

    std::uint32_t processes = 64;
    double process_skew = 0.8;            ///< Zipf skew of process activity
    std::uint64_t private_blocks = 4'000; ///< per-process data region
    double private_skew = 0.85;
    std::uint64_t shared_blocks = 8'000;  ///< shared libraries / system files
    double shared_skew = 1.0;
    std::uint64_t cold_blocks = 2'000'000;///< touch-once space (cold scans)

    double burst_mean = 30.0;             ///< accesses per scheduling burst
    double p_private = 0.38;              ///< mixture weights per access:
    double p_shared = 0.14;               ///<   (remainder after the three
    double p_sequential = 0.40;           ///<    below is cold random)
    double run_mean = 24.0;               ///< sequential run length
    /// Chance that a new sequential run re-reads a previously read run
    /// (cron jobs, recompiles, log rotation...).  These long-distance
    /// repeats are what survives the 30 MB first-level cache and gives
    /// the residual trace its modest (~36 %) predictability.
    double rerun_prob = 0.65;
    std::uint32_t run_history = 4;       ///< remembered runs per process
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
    struct PastRun {
      std::uint64_t start = 0;
      std::uint64_t length = 0;
    };
    struct ProcessState {
      std::uint64_t run_block = 0;  ///< next block of the current seq. run
      std::uint64_t run_remaining = 0;
      std::vector<PastRun> history;  ///< ring buffer of completed runs
      std::size_t history_next = 0;
    };

    Config config_;
    util::Xoshiro256 rng_;
    std::uint64_t private_base_;
    std::uint64_t cold_base_;
    util::ZipfSampler pick_process_;
    util::ZipfSampler pick_private_;
    util::ZipfSampler pick_shared_;
    std::vector<ProcessState> procs_;
    std::uint32_t proc_ = 0;
    std::uint64_t burst_remaining_ = 0;
  };

  explicit TimeshareGenerator(Config config);

  /// The first Config::references records of Source(config()).
  [[nodiscard]] Trace generate() const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  Config config_;
};

}  // namespace pfp::trace
