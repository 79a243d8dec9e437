#include "engine/sharded_engine.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "obs/trace_ring.hpp"
#include "util/assert.hpp"
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
  workers_.reserve(config_.shards);
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    workers_.push_back(pool_.submit([this, s] { worker(*s); }));
  }
}

ShardedEngine::~ShardedEngine() {
  stop_.store(true, std::memory_order_release);
  // Wake every worker unconditionally: a worker that read wake_seq
  // before this bump is woken by it; one that reads it after acquires
  // the bump, so it also sees stop_ and does not park.
  for (auto& shard : shards_) {
    shard->wake_seq.fetch_add(1, std::memory_order_release);
    shard->wake_seq.notify_one();
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    try {
      workers_[i].get();
    } catch (...) {
      // Worker exceptions (none expected: access() doesn't throw after
      // construction) must not escape a destructor.
      continue;
    }
    // A worker returns only once stop_ is set and its ring is empty, so
    // every reference handed to it was processed.
    Shard& shard = *shards_[i];
    shard.queue.assert_producer();
    PFP_REQUIRE(shard.processed.load(std::memory_order_relaxed) ==
                shard.pushed);
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
  wake_worker(shard);
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
    // Wake before any backpressure wait: a parked worker would never
    // make the room this loop waits for.
    wake_worker(shard);
    run = run.subspan(accepted);
    backoff.reset();
  }
}

void ShardedEngine::wake_worker(Shard& shard) {
  // Dekker, producer half: the ring's tail store, then this fence, then
  // the load of `sleeping`.  park() stores `sleeping`, fences, then
  // loads the tail.  With a seq_cst fence on each side at least one
  // thread sees the other's store: either this load reads true and we
  // wake the worker, or park()'s re-check sees the new tail and does not
  // park.
  // lint: allow(fence): pairs with park()'s fence (Dekker)
  // lint: allow(seq-cst): only seq_cst orders a store before a load
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (shard.sleeping.load(std::memory_order_relaxed)) {
    shard.wake_seq.fetch_add(1, std::memory_order_release);
    shard.wake_seq.notify_one();
  }
}

void ShardedEngine::flush() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    shard.queue.assert_producer();  // `pushed` is producer-guarded
    util::Backoff backoff;
    for (;;) {
      std::uint64_t done = shard.processed.load(std::memory_order_acquire);
      if (done >= shard.pushed) {
        break;
      }
      if (backoff.spin()) {
        continue;
      }
      // Dekker, producer half of the flush handshake: store the flag,
      // fence, re-load `processed`.  complete() does the mirror image,
      // so either this load sees the worker's progress or the worker
      // sees the flag and notifies after it.
      shard.producer_waiting.store(true, std::memory_order_relaxed);
      // lint: allow(fence): pairs with complete()'s fence (Dekker)
      // lint: allow(seq-cst): only seq_cst orders a store before a load
      std::atomic_thread_fence(std::memory_order_seq_cst);
      done = shard.processed.load(std::memory_order_acquire);
      if (done < shard.pushed) {
        shard.processed.wait(done, std::memory_order_acquire);
      }
      // Relaxed: a worker that still reads true only pays a spare notify.
      shard.producer_waiting.store(false, std::memory_order_relaxed);
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
  // per-access setup are amortized over the run.  An empty ring gets
  // the bounded Backoff spin, then the worker parks.
  shard.queue.assert_consumer();
  std::array<trace::BlockId, kMaxPop> run;
  util::Backoff backoff;
  for (;;) {
    const std::size_t n = shard.queue.try_pop_n(run.data(), run.size());
    if (n > 0) {
      complete(shard, std::span(run.data(), n));
      backoff.reset();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // The producer pushed everything before it set stop_, so the
      // acquire makes all of it visible: an empty ring is drained.
      if (shard.queue.empty()) {
        return;
      }
      continue;
    }
    if (!backoff.spin()) {
      park(shard);
      backoff.reset();
    }
  }
}

void ShardedEngine::complete(Shard& shard,
                             std::span<const trace::BlockId> run) {
  shard.engine.access_many(run);
  shard.processed.fetch_add(run.size(), std::memory_order_release);
  // Dekker, worker half of the flush handshake (see flush()).
  // lint: allow(fence): pairs with flush()'s fence (Dekker)
  // lint: allow(seq-cst): only seq_cst orders a store before a load
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (shard.producer_waiting.load(std::memory_order_relaxed)) {
    shard.processed.notify_one();
  }
}

void ShardedEngine::park(Shard& shard) {
  // Read the wake word BEFORE the re-check: any wake_worker() or
  // destructor bump that the re-check misses comes after this read, so
  // wait() sees a changed word (or the notify) and returns.  The acquire
  // pairs with the destructor's release bump: reading its value makes
  // stop_ visible to the re-check below.
  const std::uint32_t seen = shard.wake_seq.load(std::memory_order_acquire);
  shard.sleeping.store(true, std::memory_order_relaxed);
  // Dekker, worker half (see wake_worker()): store `sleeping`, fence,
  // re-check the ring.
  // lint: allow(fence): pairs with wake_worker()'s fence (Dekker)
  // lint: allow(seq-cst): only seq_cst orders a store before a load
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (shard.queue.empty() && !stop_.load(std::memory_order_acquire)) {
    shard.wake_seq.wait(seen, std::memory_order_acquire);
  }
  // Relaxed: a producer that still reads true only pays a spare notify.
  shard.sleeping.store(false, std::memory_order_relaxed);
}

}  // namespace pfp::engine
