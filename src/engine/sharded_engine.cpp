#include "engine/sharded_engine.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "obs/trace_ring.hpp"
#include "util/backoff.hpp"

namespace pfp::engine {

namespace {

// Largest run a worker pops in one ring transaction.
constexpr std::size_t kMaxPop = 256;

// Runs before the thread pool spins up (member-init order), so a bad
// shard count can never spawn a runaway number of workers first.
ShardedConfig validated(ShardedConfig config) {
  if (config.shards == 0) {
    throw std::invalid_argument("ShardedConfig: shards must be at least 1");
  }
  if (config.shards > 1024) {
    throw std::invalid_argument(
        "ShardedConfig: shards must be at most 1024");
  }
  if (config.run_length == 0) {
    throw std::invalid_argument(
        "ShardedConfig: run_length must be at least 1");
  }
  validate(config.engine);
  return config;
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedConfig config)
    : config_(validated(config)), pool_(config_.shards) {
  shards_.reserve(config_.shards);
  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(config_.engine, config_.queue_capacity));
  }
  // Thread-per-shard: each worker occupies one pool thread for the
  // engine's whole lifetime, which is why the pool is sized to shards.
  workers_.reserve(config.shards);
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    workers_.push_back(pool_.submit([this, s] { worker(*s); }));
  }
}

ShardedEngine::~ShardedEngine() {
  stop_.store(true, std::memory_order_release);
  for (auto& future : workers_) {
    try {
      future.get();
    } catch (...) {
      // Worker exceptions (none expected: access() doesn't throw after
      // construction) must not escape a destructor.
    }
  }
}

void ShardedEngine::push(trace::BlockId block) {
  Shard& shard = next_shard();
  ++dealt_;
  // This thread is the engine's unique producer (class contract); it
  // plays the producer role for every shard queue and is the single
  // writer of the backpressure counter.
  shard.queue.assert_producer();
  shard.push_waits.assert_writer();
  util::Backoff backoff;
  while (!shard.queue.try_push(block)) {
    shard.push_waits.inc();  // off the steady-state path: full queue only
    backoff.wait();  // backpressure: consumer is behind
  }
  ++shard.pushed;
}

void ShardedEngine::access_many(std::span<const trace::BlockId> blocks) {
  // The deal is a pure function of the stream position, so splitting at
  // run boundaries lands every reference where push() would have.
  while (!blocks.empty()) {
    const std::size_t run_left =
        config_.run_length - dealt_ % config_.run_length;
    const std::size_t n = std::min(run_left, blocks.size());
    push_run(next_shard(), blocks.first(n));
    dealt_ += n;
    blocks = blocks.subspan(n);
  }
}

void ShardedEngine::push_run(Shard& shard,
                             std::span<const trace::BlockId> run) {
  shard.queue.assert_producer();
  shard.push_waits.assert_writer();
  shard.pushed += run.size();
  util::Backoff backoff;
  while (!run.empty()) {
    const std::size_t accepted = shard.queue.try_push_n(run);
    if (accepted == 0) {
      shard.push_waits.inc();
      backoff.wait();
      continue;
    }
    run = run.subspan(accepted);
    backoff.reset();
  }
}

void ShardedEngine::flush() {
  for (auto& shard : shards_) {
    shard->queue.assert_producer();  // `pushed` is producer-guarded
    util::Backoff backoff;
    while (shard->processed.load(std::memory_order_acquire) <
           shard->pushed) {
      backoff.wait();
    }
  }
}

Metrics ShardedEngine::merged_metrics() {
  flush();
  std::vector<Metrics> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    per_shard.push_back(shard->engine.metrics());
  }
  return merge_metrics(per_shard);
}

obs::EngineStats ShardedEngine::shard_stats(std::uint32_t index) const {
  const Shard& shard = *shards_[index];
  obs::EngineStats stats = shard.engine.stats();
  stats.queue_occupancy = shard.queue.size();
  stats.queue_capacity = shard.queue.capacity();
  stats.queue_backpressure_waits = shard.push_waits.get();
  return stats;
}

obs::EngineStats ShardedEngine::stats() const {
  obs::EngineStats merged = shard_stats(0);
  for (std::uint32_t i = 1; i < shards(); ++i) {
    merged.merge(shard_stats(i));
  }
  return merged;
}

void ShardedEngine::write_chrome_trace(std::ostream& out) {
  // flush()'s acquire on each processed counter orders the workers' ring
  // slot writes before our reads (the quiescent-dump contract).
  flush();
  std::vector<const obs::TraceRing*> rings;
  rings.reserve(shards_.size());
  for (const auto& shard : shards_) {
    rings.push_back(&shard->engine.observability().ring());
  }
  obs::write_chrome_trace(out, rings);
}

void ShardedEngine::worker(Shard& shard) {
  // This thread is the shard's unique consumer and the only thread that
  // ever touches shard.engine after construction.  It pulls up to
  // kMaxPop records in one bulk ring transaction and feeds them through
  // the engine's batched loop, so both ends of the ring and the
  // per-access setup are amortized over the run.
  shard.queue.assert_consumer();
  std::array<trace::BlockId, kMaxPop> run;
  util::Backoff backoff;
  for (;;) {
    const std::size_t n = shard.queue.try_pop_n(run.data(), run.size());
    if (n > 0) {
      shard.engine.access_many(std::span(run.data(), n));
      shard.processed.fetch_add(n, std::memory_order_release);
      backoff.reset();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // Drain anything that raced in before stop was observed.
      for (;;) {
        const std::size_t tail = shard.queue.try_pop_n(run.data(), run.size());
        if (tail == 0) {
          return;
        }
        shard.engine.access_many(std::span(run.data(), tail));
        shard.processed.fetch_add(tail, std::memory_order_release);
      }
    }
    backoff.wait();
  }
}

}  // namespace pfp::engine
