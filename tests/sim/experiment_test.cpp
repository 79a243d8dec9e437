#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/prng.hpp"

namespace pfp::sim {
namespace {

using core::policy::PolicyKind;
using core::policy::PolicySpec;
using trace::Trace;

Trace small_trace() {
  Trace t("small");
  util::Xoshiro256 rng(2);
  for (int i = 0; i < 3'000; ++i) {
    t.append(rng.below(200));
  }
  return t;
}

TEST(Experiment, DefaultCacheSizesAscend) {
  const auto& sizes = default_cache_sizes();
  ASSERT_GE(sizes.size(), 4u);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_GT(sizes[i], sizes[i - 1]);
  }
}

TEST(Experiment, GridBuildsFullCross) {
  const Trace t = small_trace();
  PolicySpec a;
  a.kind = PolicyKind::kNoPrefetch;
  PolicySpec b;
  b.kind = PolicyKind::kNextLimit;
  const auto specs = grid(t, {8, 16, 32}, {a, b});
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].config.cache_blocks, 8u);
  EXPECT_EQ(specs[0].config.policy.kind, PolicyKind::kNoPrefetch);
  EXPECT_EQ(specs[1].config.policy.kind, PolicyKind::kNextLimit);
  EXPECT_EQ(specs[5].config.cache_blocks, 32u);
  for (const auto& s : specs) {
    EXPECT_EQ(s.trace, &t);
  }
}

TEST(Experiment, RunSerialPreservesOrder) {
  const Trace t = small_trace();
  PolicySpec np;
  np.kind = PolicyKind::kNoPrefetch;
  const auto specs = grid(t, {8, 64}, {np});
  const auto results = run_serial(specs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].config.cache_blocks, 8u);
  EXPECT_EQ(results[1].config.cache_blocks, 64u);
  // larger cache cannot miss more under LRU inclusion
  EXPECT_GE(results[0].metrics.misses, results[1].metrics.misses);
}

TEST(Experiment, RunSerialRejectsNullTrace) {
  const Trace t = small_trace();
  PolicySpec np;
  np.kind = PolicyKind::kNoPrefetch;
  auto specs = grid(t, {8, 16, 32}, {np});
  specs[1].trace = nullptr;
  EXPECT_THROW(run_serial(specs), std::invalid_argument);
}

TEST(Experiment, DefaultReferencesMatchPaperScaling) {
  // CAD is kept at its original length; the multi-million traces are
  // scaled down but stay the largest.
  EXPECT_EQ(default_references(trace::Workload::kCad), 147'000u);
  EXPECT_GE(default_references(trace::Workload::kCello), 200'000u);
  EXPECT_GE(default_references(trace::Workload::kSnake), 200'000u);
}

}  // namespace
}  // namespace pfp::sim
