// Idle shard workers park on a futex word instead of spinning, and
// flush() parks the same way (docs/perf.md, "Park and wake").  These
// tests pin the two sides of that bargain: an idle engine costs no CPU,
// and no wake-up is ever lost.  They are named Sharded* so the
// ThreadSanitizer leg runs them.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "engine/prefetch_engine.hpp"
#include "engine/sharded_engine.hpp"
#include "trace/gen_cad.hpp"
#include "util/prng.hpp"

namespace pfp::engine {
namespace {

using core::policy::PolicyKind;
using Clock = std::chrono::steady_clock;

ShardedConfig park_config(std::uint32_t shards) {
  ShardedConfig c;
  c.engine.cache_blocks = 128;
  c.engine.policy.kind = PolicyKind::kTreeNextLimit;
  c.shards = shards;
  return c;
}

std::vector<trace::BlockId> cad_blocks(std::uint64_t references) {
  trace::CadGenerator::Config cfg;
  cfg.references = references;
  std::vector<trace::BlockId> blocks;
  for (const auto& rec : trace::CadGenerator(cfg).generate()) {
    blocks.push_back(rec.block);
  }
  return blocks;
}

/// CPU seconds used by every thread of this process so far.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Aborts the test binary if its scope is not left within `limit`, so a
/// lost wake-up fails fast with a message instead of hanging ctest.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!done_cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr,
                         "watchdog: no progress in %llds (lost wake-up?)\n",
                         static_cast<long long>(limit.count()));
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    done_cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the fields it reads
};

TEST(ShardedPark, IdleEngineUsesNoCpu) {
  const auto warm = cad_blocks(5'000);
  Watchdog watchdog(std::chrono::seconds(120));
  for (const std::uint32_t shards : {2u, 4u}) {
    ShardedEngine eng(park_config(shards));
    eng.access_many(warm);
    eng.flush();
    const auto wall_start = Clock::now();
    const double cpu_start = process_cpu_seconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(1'200));
    const double cpu = process_cpu_seconds() - cpu_start;
    const double wall =
        std::chrono::duration<double>(Clock::now() - wall_start).count();
    // A yield-spinning worker would burn ~1 core each: 1.0 * shards.
    EXPECT_LT(cpu / wall, 0.02)
        << shards << " idle shards used " << cpu << " s of CPU over "
        << wall << " s";
    EXPECT_EQ(eng.merged_metrics().accesses, warm.size());
  }
}

// Seeded random idle gaps between hand-offs and flushes: none, a short
// busy gap that lands in the worker's spin-then-park transition, or a
// 0-2 ms sleep that lets it park.  Every shard must still process
// exactly its positional slices, bit-identically.
TEST(ShardedPark, NoLostWakeupAcrossIdleGaps) {
  const auto blocks = cad_blocks(40'000);
  ShardedConfig c = park_config(3);
  c.run_length = 97;
  c.queue_capacity = 64;  // pieces overflow it: wake before backpressure
  Watchdog watchdog(std::chrono::seconds(120));
  ShardedEngine eng(c);
  util::Xoshiro256 rng(17);
  const auto idle_gap = [&rng] {
    switch (rng.below(3)) {
      case 0:
        return;
      case 1: {
        const auto until = Clock::now() + std::chrono::microseconds(
                                              rng.below(20));
        while (Clock::now() < until) {
        }
        return;
      }
      default:
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.below(2'001)));
    }
  };
  std::size_t i = 0;
  while (i < blocks.size()) {
    if (rng.below(4) == 0) {
      eng.push(blocks[i]);
      ++i;
    } else {
      const std::size_t n = std::min<std::size_t>(
          blocks.size() - i, 1 + static_cast<std::size_t>(rng.below(300)));
      eng.access_many({blocks.data() + i, n});
      i += n;
    }
    idle_gap();
    if (rng.below(8) == 0) {
      eng.flush();
      idle_gap();
    }
  }
  eng.flush();

  for (std::uint32_t s = 0; s < c.shards; ++s) {
    PrefetchEngine reference(c.engine);
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      if ((k / c.run_length) % c.shards == s) {
        reference.access(blocks[k]);
      }
    }
    const Metrics& got = eng.shard(s).metrics();
    const Metrics& want = reference.metrics();
    EXPECT_EQ(got.accesses, want.accesses) << "shard " << s;
    EXPECT_EQ(got.misses, want.misses) << "shard " << s;
    EXPECT_EQ(got.prefetch_hits, want.prefetch_hits) << "shard " << s;
    EXPECT_EQ(got.elapsed_ms, want.elapsed_ms) << "shard " << s;
    EXPECT_EQ(got.policy.sum_prefetch_probability,
              want.policy.sum_prefetch_probability)
        << "shard " << s;
  }
}

// The destructor must wake parked workers (or it would hang) and they
// must drain what was queued: ~ShardedEngine aborts unless every shard
// processed everything it was handed.
TEST(ShardedPark, DestroyingParkedEngineIsPromptAndDrains) {
  const auto warm = cad_blocks(5'000);
  const auto queued = cad_blocks(20'000);
  Watchdog watchdog(std::chrono::seconds(120));
  for (const std::uint32_t shards : {2u, 4u}) {
    for (const bool with_work : {false, true}) {
      std::optional<ShardedEngine> eng(std::in_place, park_config(shards));
      eng->access_many(warm);
      eng->flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (with_work) {
        eng->access_many(queued);  // no flush: the destructor drains
      }
      const auto start = Clock::now();
      eng.reset();
      if (!with_work) {
        EXPECT_LT(Clock::now() - start, std::chrono::seconds(2))
            << shards << " parked shards took too long to stop";
      }
    }
  }
}

}  // namespace
}  // namespace pfp::engine
