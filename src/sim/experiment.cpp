#include "sim/experiment.hpp"

#include <stdexcept>

namespace pfp::sim {

const std::vector<std::size_t>& default_cache_sizes() {
  static const std::vector<std::size_t> kSizes = {128,  256,  512, 1024,
                                                  2048, 4096, 8192};
  return kSizes;
}

std::vector<Result> run_serial(const std::vector<RunSpec>& specs) {
  std::vector<Result> results;
  results.reserve(specs.size());
  for (const auto& spec : specs) {
    if (spec.trace == nullptr) {
      throw std::invalid_argument("run_serial: RunSpec without a trace");
    }
    results.push_back(simulate(spec.config, *spec.trace));
  }
  return results;
}

std::vector<RunSpec> grid(const trace::Trace& trace,
                          const std::vector<std::size_t>& cache_sizes,
                          const std::vector<core::policy::PolicySpec>& specs,
                          const core::costben::TimingParams& timing) {
  std::vector<RunSpec> out;
  out.reserve(cache_sizes.size() * specs.size());
  for (const std::size_t blocks : cache_sizes) {
    for (const auto& policy : specs) {
      RunSpec run;
      run.trace = &trace;
      run.config.cache_blocks = blocks;
      run.config.timing = timing;
      run.config.policy = policy;
      out.push_back(run);
    }
  }
  return out;
}

std::uint64_t default_references(trace::Workload workload) {
  switch (workload) {
    case trace::Workload::kCello:
      return 220'000;  // paper: 3.5 M
    case trace::Workload::kSnake:
      return 220'000;  // paper: 3.9 M
    case trace::Workload::kCad:
      return 147'000;  // paper: 147 K (kept 1:1)
    case trace::Workload::kSitar:
      return 220'000;  // paper: 665 K
  }
  return 200'000;
}

}  // namespace pfp::sim
