#include "trace/gen_timeshare.hpp"

#include "util/assert.hpp"

namespace pfp::trace {

TimeshareGenerator::TimeshareGenerator(Config config) : config_(config) {
  PFP_REQUIRE(config_.processes >= 1);
  PFP_REQUIRE(config_.p_private + config_.p_shared + config_.p_sequential <=
              1.0);
  PFP_REQUIRE(config_.burst_mean >= 1.0);
  PFP_REQUIRE(config_.run_mean >= 1.0);
}

// Address-space layout (block numbers):
//   [0, shared)                          shared libraries / system files
//   [shared, shared + P*private)         per-process private regions
//   [data_end, data_end + cold)          cold, effectively touch-once
TimeshareGenerator::Source::Source(const Config& config)
    : config_(config),
      rng_(config.seed),
      private_base_(config.shared_blocks),
      cold_base_(private_base_ + static_cast<std::uint64_t>(config.processes) *
                                     config.private_blocks),
      pick_process_(config.processes, config.process_skew),
      pick_private_(config.private_blocks, config.private_skew),
      pick_shared_(config.shared_blocks, config.shared_skew),
      procs_(config.processes) {}

TraceRecord TimeshareGenerator::Source::next() {
  if (burst_remaining_ == 0) {
    proc_ = static_cast<std::uint32_t>(pick_process_(rng_));
    burst_remaining_ = 1 + rng_.poisson(config_.burst_mean - 1.0);
  }
  --burst_remaining_;
  ProcessState& st = procs_[proc_];

  const double roll = rng_.uniform();
  BlockId block;
  if (roll < config_.p_private) {
    block = private_base_ +
            static_cast<std::uint64_t>(proc_) * config_.private_blocks +
            pick_private_(rng_);
  } else if (roll < config_.p_private + config_.p_shared) {
    block = pick_shared_(rng_);
  } else if (roll < config_.p_private + config_.p_shared +
                        config_.p_sequential) {
    if (st.run_remaining == 0) {
      // Start a sequential run: usually a cold file read through space
      // the first-level cache has never seen, but with rerun_prob a
      // re-read of an earlier run — repetition at distances far beyond
      // the L1 filter, the source of the residual predictability.
      if (!st.history.empty() && rng_.bernoulli(config_.rerun_prob)) {
        const PastRun& past = st.history[rng_.below(st.history.size())];
        st.run_block = past.start;
        st.run_remaining = past.length;
      } else {
        st.run_block = cold_base_ + rng_.below(config_.cold_blocks);
        st.run_remaining = 1 + rng_.poisson(config_.run_mean - 1.0);
        const PastRun run{st.run_block, st.run_remaining};
        if (st.history.size() < config_.run_history) {
          st.history.push_back(run);
        } else {
          st.history[st.history_next] = run;
          st.history_next = (st.history_next + 1) % st.history.size();
        }
      }
    }
    block = st.run_block++;
    --st.run_remaining;
  } else {
    block = cold_base_ + rng_.below(config_.cold_blocks);
  }
  return TraceRecord{block, proc_};
}

Trace TimeshareGenerator::generate() const {
  Source source(config_);
  Trace trace("cello-raw");
  trace.reserve(config_.references);
  for (std::uint64_t i = 0; i < config_.references; ++i) {
    trace.push_back(source.next());
  }
  return trace;
}

}  // namespace pfp::trace
