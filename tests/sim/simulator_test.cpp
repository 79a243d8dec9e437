#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "cache/lru_cache.hpp"
#include "util/prng.hpp"

namespace pfp::sim {
namespace {

using core::policy::PolicyKind;
using trace::BlockId;
using trace::Trace;

Trace zipfish_trace(std::size_t n, std::uint64_t seed) {
  Trace t("zipfish");
  util::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    // mixture of hot set and cold tail
    if (rng.bernoulli(0.6)) {
      t.append(rng.below(100));
    } else {
      t.append(1'000 + rng.below(100'000));
    }
  }
  return t;
}

engine::EngineConfig no_prefetch_config(std::size_t blocks) {
  engine::EngineConfig c;
  c.cache_blocks = blocks;
  c.policy.kind = PolicyKind::kNoPrefetch;
  return c;
}

// The no-prefetch simulator must match a plain LRU cache access-for-access.
TEST(Simulator, NoPrefetchEqualsPlainLru) {
  const Trace t = zipfish_trace(50'000, 11);
  for (const std::size_t blocks : {16u, 64u, 256u}) {
    cache::LruCache reference(blocks);
    std::uint64_t ref_misses = 0;
    for (const auto& r : t) {
      if (!reference.access(r.block)) {
        ++ref_misses;
      }
    }
    const auto result = simulate(no_prefetch_config(blocks), t);
    EXPECT_EQ(result.metrics.misses, ref_misses) << "blocks=" << blocks;
    EXPECT_EQ(result.metrics.demand_hits, t.size() - ref_misses);
  }
}

TEST(Simulator, EmptyTraceProducesZeroMetrics) {
  const auto r = simulate(no_prefetch_config(8), Trace("empty"));
  EXPECT_EQ(r.metrics.accesses, 0u);
  EXPECT_DOUBLE_EQ(r.metrics.miss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(r.metrics.elapsed_ms, 0.0);
}

TEST(Simulator, ResultCarriesNames) {
  const Trace t = zipfish_trace(100, 1);
  engine::EngineConfig c = no_prefetch_config(8);
  const auto r = simulate(c, t);
  EXPECT_EQ(r.trace_name, "zipfish");
  EXPECT_EQ(r.policy_name, "no-prefetch");
  EXPECT_EQ(r.config.cache_blocks, 8u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const Trace t = zipfish_trace(20'000, 3);
  engine::EngineConfig c;
  c.cache_blocks = 64;
  c.policy.kind = PolicyKind::kTreeNextLimit;
  const auto a = simulate(c, t);
  const auto b = simulate(c, t);
  EXPECT_EQ(a.metrics.misses, b.metrics.misses);
  EXPECT_EQ(a.metrics.prefetch_hits, b.metrics.prefetch_hits);
  EXPECT_EQ(a.metrics.policy.prefetches_issued,
            b.metrics.policy.prefetches_issued);
  EXPECT_DOUBLE_EQ(a.metrics.elapsed_ms, b.metrics.elapsed_ms);
}

TEST(Simulator, ResidencyNeverExceedsCapacity) {
  const Trace t = zipfish_trace(5'000, 4);
  engine::EngineConfig c;
  c.cache_blocks = 32;
  c.policy.kind = PolicyKind::kTreeNextLimit;
  engine::PrefetchEngine eng(c);
  for (std::size_t i = 0; i < t.size(); ++i) {
    eng.step(t, i);
    ASSERT_LE(eng.buffer_cache().resident(), 32u);
  }
}

TEST(Simulator, ElapsedTimeAccountsMissesAndHits) {
  // Two distinct blocks, each accessed twice, cache big enough: 2 misses
  // + 2 hits, no prefetching.
  Trace t("tiny");
  t.append(1);
  t.append(2);
  t.append(1);
  t.append(2);
  engine::EngineConfig c = no_prefetch_config(8);
  const auto r = simulate(c, t);
  const auto& tm = c.timing;
  const double expected = 4 * (tm.t_hit + tm.t_cpu)        // access periods
                          + 2 * (tm.t_driver + tm.t_disk); // two misses
  EXPECT_NEAR(r.metrics.elapsed_ms, expected, 1e-9);
  EXPECT_NEAR(r.metrics.stall_ms, 2 * tm.t_disk, 1e-9);
}

TEST(Simulator, PrefetchingReducesElapsedTimeOnPattern) {
  Trace t("pattern");
  util::SplitMix64 sm(5);
  std::vector<BlockId> pattern;
  for (int i = 0; i < 30; ++i) {
    pattern.push_back(sm.next() >> 20);
  }
  for (int r = 0; r < 200; ++r) {
    for (const BlockId b : pattern) {
      t.append(b);
    }
  }
  engine::EngineConfig np = no_prefetch_config(16);
  engine::EngineConfig tree = np;
  tree.policy.kind = PolicyKind::kTree;
  const auto r_np = simulate(np, t);
  const auto r_tree = simulate(tree, t);
  EXPECT_LT(r_tree.metrics.elapsed_ms, r_np.metrics.elapsed_ms);
  EXPECT_LT(r_tree.metrics.stall_ms, r_np.metrics.stall_ms);
}

TEST(Simulator, MissRatePlusHitRateIsOne) {
  const auto r = simulate(no_prefetch_config(64), zipfish_trace(10'000, 6));
  EXPECT_NEAR(r.metrics.miss_rate() + r.metrics.hit_rate(), 1.0, 1e-12);
}

TEST(Simulator, SmallestLegalCacheWorks) {
  const auto r = simulate(no_prefetch_config(2), zipfish_trace(5'000, 8));
  EXPECT_EQ(r.metrics.accesses, 5'000u);
}

TEST(Simulator, TreePolicySmallCacheStress) {
  // Tiny cache + aggressive prefetching: the reclaim logic must never
  // violate capacity or deadlock.
  engine::EngineConfig c;
  c.cache_blocks = 4;
  c.policy.kind = PolicyKind::kTreeNextLimit;
  const auto r = simulate(c, zipfish_trace(20'000, 9));
  EXPECT_EQ(r.metrics.accesses, 20'000u);
}

}  // namespace
}  // namespace pfp::sim
