#include "trace/workloads.hpp"

#include <stdexcept>

#include "trace/gen_cad.hpp"
#include "trace/gen_fileserver.hpp"
#include "trace/gen_sequential.hpp"
#include "trace/gen_timeshare.hpp"
#include "trace/l1_filter.hpp"
#include "util/assert.hpp"

namespace pfp::trace {

namespace {

// 8 KiB blocks: 30 MiB and 5 MiB first-level caches (Table 1).
constexpr std::uint64_t kCelloL1Blocks = 30ULL * 1024 * 1024 / 8192;  // 3840
constexpr std::uint64_t kSnakeL1Blocks = 5ULL * 1024 * 1024 / 8192;   // 640

// Raw references read per requested survivor before giving up, 3 x 2^7:
// construction once regenerated at 3x, 6x, ... 384x the length, and this
// bound keeps its output even when the filter absorbs almost everything.
constexpr std::uint64_t kRawPerReference = 384;

/// Streams the generator's raw records through an L1 filter until
/// `references` misses survive.  Each Source::next() is one record of the
/// generator's loop, so the result is a pure function of (seed,
/// references) and a longer workload extends a shorter one.
template <typename Generator>
Trace filtered_workload(const typename Generator::Config& config,
                        std::uint64_t l1_blocks, std::uint64_t references,
                        const char* name) {
  typename Generator::Source source(config);
  L1Filter filter(l1_blocks);
  Trace survived(name);
  survived.reserve(references);
  const std::uint64_t raw_budget = references * kRawPerReference;
  for (std::uint64_t raw = 0; raw < raw_budget && survived.size() < references;
       ++raw) {
    const TraceRecord record = source.next();
    if (filter.access(record.block)) {
      survived.push_back(record);
    }
  }
  return survived;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      Workload::kCello, Workload::kSnake, Workload::kCad, Workload::kSitar};
  return kAll;
}

std::string workload_name(Workload workload) {
  switch (workload) {
    case Workload::kCello:
      return "cello";
    case Workload::kSnake:
      return "snake";
    case Workload::kCad:
      return "cad";
    case Workload::kSitar:
      return "sitar";
  }
  return "?";
}

Workload workload_from_name(const std::string& name) {
  for (const Workload w : all_workloads()) {
    if (workload_name(w) == name) {
      return w;
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t workload_l1_blocks(Workload workload) {
  switch (workload) {
    case Workload::kCello:
      return kCelloL1Blocks;
    case Workload::kSnake:
      return kSnakeL1Blocks;
    case Workload::kCad:
    case Workload::kSitar:
      return 0;
  }
  return 0;
}

Trace make_workload(Workload workload, std::uint64_t references,
                    std::uint64_t seed) {
  PFP_REQUIRE(references > 0);
  switch (workload) {
    case Workload::kCello: {
      TimeshareGenerator::Config config;
      config.seed ^= seed;
      return filtered_workload<TimeshareGenerator>(config, kCelloL1Blocks,
                                                   references, "cello");
    }
    case Workload::kSnake: {
      FileServerGenerator::Config config;
      config.seed ^= seed;
      return filtered_workload<FileServerGenerator>(config, kSnakeL1Blocks,
                                                    references, "snake");
    }
    case Workload::kCad: {
      CadGenerator::Config config;
      config.references = references;
      config.seed ^= seed;
      Trace trace = CadGenerator(config).generate();
      trace.set_name("cad");
      return trace;
    }
    case Workload::kSitar: {
      SitarGenerator::Config config;
      config.references = references;
      config.seed ^= seed;
      Trace trace = SitarGenerator(config).generate();
      trace.set_name("sitar");
      return trace;
    }
  }
  throw std::invalid_argument("unknown workload enum value");
}

}  // namespace pfp::trace
