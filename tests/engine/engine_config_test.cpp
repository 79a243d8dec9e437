#include "engine/config.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "engine/prefetch_engine.hpp"

namespace pfp::engine {
namespace {

using core::policy::PolicyKind;

EngineConfig good_config() {
  EngineConfig c;
  c.cache_blocks = 64;
  c.policy.kind = PolicyKind::kTreeNextLimit;
  return c;
}

TEST(EngineConfigValidate, DefaultsAreValid) {
  EXPECT_NO_THROW(validate(EngineConfig{}));
  EXPECT_NO_THROW(validate(good_config()));
}

TEST(EngineConfigValidate, RejectsEmptyCache) {
  EngineConfig c = good_config();
  c.cache_blocks = 0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsNonPositiveHitTime) {
  EngineConfig c = good_config();
  c.timing.t_hit = 0.0;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c.timing.t_hit = -0.243;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsNonPositiveDriverTime) {
  EngineConfig c = good_config();
  c.timing.t_driver = 0.0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsNonPositiveDiskTime) {
  EngineConfig c = good_config();
  c.timing.t_disk = -15.0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsNonPositiveCpuTime) {
  EngineConfig c = good_config();
  c.timing.t_cpu = 0.0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsNanTiming) {
  EngineConfig c = good_config();
  c.timing.t_disk = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsOblQuotaOutsideUnitInterval) {
  EngineConfig c = good_config();
  for (const double quota : {-0.1, 0.0, 1.5}) {
    c.policy.obl_quota = quota;
    EXPECT_THROW(validate(c), std::invalid_argument) << quota;
  }
}

TEST(EngineConfigValidate, RejectsThresholdOutsideUnitInterval) {
  EngineConfig c = good_config();
  for (const double threshold : {0.0, 2.0}) {
    c.policy.threshold = threshold;
    EXPECT_THROW(validate(c), std::invalid_argument) << threshold;
  }
}

TEST(EngineConfigValidate, RejectsGraphMinProbabilityOutsideUnitInterval) {
  EngineConfig c = good_config();
  for (const double p : {-0.5, 0.0}) {
    c.policy.graph.min_probability = p;
    EXPECT_THROW(validate(c), std::invalid_argument) << p;
  }
}

TEST(EngineConfigValidate, RejectsZeroGraphBounds) {
  EngineConfig c = good_config();
  c.policy.graph.max_prefetches = 0;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good_config();
  c.policy.graph.max_successors = 0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsInconsistentAdaptiveFloor) {
  using core::policy::AdaptiveConfig;
  const struct {
    const char* what;
    void (*breaks)(AdaptiveConfig&);
  } cases[] = {
      {"min_floor = 0", [](AdaptiveConfig& a) { a.min_floor = 0.0; }},
      {"min_floor > initial_floor",
       [](AdaptiveConfig& a) { a.min_floor = a.initial_floor * 2.0; }},
      {"initial_floor > max_floor",
       [](AdaptiveConfig& a) { a.initial_floor = a.max_floor * 2.0; }},
      {"h_low >= h_high", [](AdaptiveConfig& a) { a.h_low = a.h_high; }},
      {"tighten_factor <= 1",
       [](AdaptiveConfig& a) { a.tighten_factor = 1.0; }},
      {"relax_factor >= 1", [](AdaptiveConfig& a) { a.relax_factor = 1.0; }},
  };
  for (const auto& row : cases) {
    EngineConfig c = good_config();
    row.breaks(c.policy.adaptive);
    EXPECT_THROW(validate(c), std::invalid_argument) << row.what;
  }
}

TEST(EngineConfigValidate, RejectsZeroChildren) {
  EngineConfig c = good_config();
  c.policy.children = 0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsZeroPrefetchBudget) {
  EngineConfig c = good_config();
  c.policy.controller.max_prefetches_per_period = 0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

TEST(EngineConfigValidate, EngineConstructorValidates) {
  EngineConfig c = good_config();
  c.cache_blocks = 0;
  EXPECT_THROW(PrefetchEngine{c}, std::invalid_argument);
  c = good_config();
  c.timing.t_cpu = -1.0;
  EXPECT_THROW(PrefetchEngine{c}, std::invalid_argument);
}

}  // namespace
}  // namespace pfp::engine
