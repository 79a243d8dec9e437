// Sharded prefetch engine: N independent PrefetchEngine shards, one
// worker thread each, fed through per-shard SPSC request queues.
//
// The reference STREAM is sliced into run_length-sized runs dealt
// round-robin to the shards: shard k processes runs k, k + shards, ...
// Each shard sees contiguous segments of the real access sequence, so
// the predictor keeps the reference-order chains it learns from, and
// every run reaches its shard's ring in bulk transactions.  A block may
// be cached by several shards (each shard provisions its own buffer
// pool): the scale-out-replicas shape.  Hash-partitioning the block
// space instead was measured 2.2-2.6x slower on CAD because it scatters
// consecutive references (docs/perf.md, "Batched hand-off").
//
// Each shard runs the full per-access state machine on its private
// cache + predictor + estimators with no cross-shard synchronization at
// all — the only shared state is the queue indices, a per-shard
// processed counter and the per-shard park/wake words.  Consequence
// (proven by test): every shard reproduces bit-identically the metrics
// of a single PrefetchEngine fed that shard's positional slices, and
// the merged metrics are a deterministic, completion-order-independent
// fold of the per-shard metrics.
//
//   engine::ShardedEngine eng(config);       // spawns the shard workers
//   for (...) eng.push(next_block());        // deals to shard queues
//   eng.flush();                             // waits for queues to drain
//   const auto merged = eng.merged_metrics();
//
// access_many() is the fast path: it splits a span at run boundaries
// and hands each piece to its shard's ring with try_push_n, so the
// per-element synchronization cost collapses to 1/piece-length of
// push()'s.  Nothing is ever staged on the producer side.
//
// An idle worker spins briefly, then parks on a futex word until the
// producer hands it work, so an idle engine costs no CPU.  flush() waits
// the same way.  The handshake and its ordering proof are in
// docs/perf.md, "Park and wake".
//
// push(), access_many(), flush() and the metrics accessors must be
// called from one producer thread; the shards consume concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "engine/config.hpp"
#include "engine/metrics.hpp"
#include "engine/prefetch_engine.hpp"
#include "obs/counters.hpp"
#include "obs/engine_obs.hpp"
#include "util/spsc_queue.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace pfp::engine {

struct ShardedConfig {
  /// Per-shard engine configuration; cache_blocks is PER SHARD, so total
  /// buffer memory is shards * cache_blocks.
  EngineConfig engine;
  std::uint32_t shards = 4;
  /// Per-shard request ring capacity (rounded up to a power of two).
  std::size_t queue_capacity = 4096;
  /// How many consecutive references go to one shard before the deal
  /// moves on.  Longer runs preserve more predictor locality and cost
  /// fewer ring transactions; shorter runs spread load sooner.
  std::size_t run_length = 1024;
};

class ShardedEngine {
 public:
  /// Validates the config and spawns one worker per shard on an internal
  /// thread pool; throws std::invalid_argument on a bad config.
  explicit ShardedEngine(ShardedConfig config);

  /// Stops the workers after draining already-queued requests.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::uint32_t shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const ShardedConfig& config() const noexcept {
    return config_;
  }

  /// Deals one reference to the shard that owns its stream position
  /// and pushes it onto that shard's queue, waiting with bounded
  /// exponential backoff (util::Backoff — spin tiers, then yield) when
  /// the queue is full, and wakes the shard's worker if it is parked.
  /// Producer thread only.
  void push(trace::BlockId block);

  /// Batched entry point: splits the span at run boundaries and pushes
  /// each piece onto its shard's ring in bulk transactions.  Deals
  /// exactly as the same references pushed one by one would, across any
  /// mix of push() and access_many() calls.  Producer thread only.
  void access_many(std::span<const trace::BlockId> blocks);

  /// Blocks until every dealt reference has been processed: spins
  /// briefly per shard, then parks until that shard's worker catches up.
  /// After flush() returns, shard state reads are race-free (the workers
  /// only poll their empty queues, then park).
  void flush();

  /// One shard's engine, for introspection; call flush() first.
  [[nodiscard]] const PrefetchEngine& shard(std::uint32_t index) const {
    return shards_[index]->engine;
  }

  /// Flushes, then folds per-shard metrics in shard-index order (see
  /// merge_metrics for why that makes the result deterministic).
  [[nodiscard]] Metrics merged_metrics();

  /// One shard's live observability view, decorated with that shard's
  /// queue occupancy/capacity gauges and backpressure-wait count.  Unlike
  /// shard(), this needs no flush — any thread, any time.
  [[nodiscard]] obs::EngineStats shard_stats(std::uint32_t index) const;

  /// Live merged view: shard_stats folded in shard-index order.  Counter
  /// sums are exact per shard but the cut across shards is not atomic —
  /// after flush() it equals the deterministic merged_metrics fold.
  [[nodiscard]] obs::EngineStats stats() const;

  /// Flushes, then renders every shard's event ring as one Chrome
  /// trace_event JSON document (pid = shard index).  Producer thread
  /// only, like flush().
  void write_chrome_trace(std::ostream& out);

 private:
  // The caller-thread / shard-thread method partition is machine-checked
  // through the queue's role capabilities (thread_annotations.hpp):
  // push()/flush() assert and require the producer role of the shard
  // queues they touch, worker() the consumer role.  A new method that
  // reads producer-guarded state (e.g. `pushed`) from a worker — or vice
  // versa — fails the -Werror=thread-safety CI leg.
  //
  // Each Shard is single-producer / single-consumer: the producer thread
  // writes its ring tail, `pushed`, `producer_waiting` and `wake_seq`;
  // the worker writes the ring head, `processed` and `sleeping`.  The two
  // 64-byte-aligned groups keep the producer's per-piece `sleeping`
  // check off the line the worker dirties once per batch.
  struct Shard {
    Shard(const EngineConfig& config, std::size_t queue_capacity)
        : engine(config), queue(queue_capacity) {}
    PrefetchEngine engine;
    util::SpscQueue<trace::BlockId> queue;
    /// The worker's park word: it parks with wake_seq.wait(seen) and the
    /// producer (or the destructor) bumps it and notifies to wake it.
    // writers: producer thread (wake_worker, destructor)
    // readers: shard worker thread (park)
    alignas(64) std::atomic<std::uint32_t> wake_seq{0};
    /// Set while the worker is about to park or parked; the producer
    /// only bumps wake_seq (a syscall) when it reads true.
    // writers: shard worker thread (park)
    // readers: producer thread (wake_worker)
    std::atomic<bool> sleeping{false};
    /// Accesses completed by the worker; release-published so flush()'s
    /// acquire load orders subsequent shard-state reads.  flush() parks
    /// on it.
    // writers: shard worker thread  readers: producer thread (flush)
    alignas(64) std::atomic<std::uint64_t> processed{0};
    /// Set while flush() is about to park or parked on `processed`; the
    /// worker only notifies when it reads true.
    // writers: producer thread (flush)  readers: shard worker thread
    std::atomic<bool> producer_waiting{false};
    /// Accesses handed to the ring; producer-thread-only, no atomics
    /// needed.
    // writers: producer thread (push/push_run)  readers: producer thread
    std::uint64_t pushed PFP_GUARDED_BY(queue.producer_role) = 0;
    /// Backoff waits the producer burned on a full queue (push or bulk
    /// push); producer-written, scraper-read (single-writer Counter
    /// contract).
    obs::Counter push_waits;
  };

  void worker(Shard& shard);
  /// Worker side of the park handshake: blocks until the producer hands
  /// the shard work or the destructor stops it.  Returns at once if work
  /// or the stop raced in.
  void park(Shard& shard);
  /// Runs a popped run through the shard's engine, publishes it in
  /// `processed` and wakes a parked flush().  Shard worker thread only.
  static void complete(Shard& shard, std::span<const trace::BlockId> run);
  /// Producer side of the park handshake, after every ring publication:
  /// wakes the worker if it parked.  Costs one fence and no syscall when
  /// the worker is awake.
  static void wake_worker(Shard& shard);
  /// The shard that owns the next stream position.  Producer thread only
  /// (the position counter is producer state).
  [[nodiscard]] Shard& next_shard() noexcept {
    return *shards_[(dealt_ / config_.run_length) % shards_.size()];
  }
  /// Hands one piece of a run to its shard's ring (bounded backoff on
  /// backpressure, each wait counted) and advances `pushed`.
  void push_run(Shard& shard, std::span<const trace::BlockId> run);

  ShardedConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// References dealt so far; drives the positional deal.
  // writers: producer thread (push/access_many)  readers: producer thread
  std::uint64_t dealt_ = 0;
  // writers: destructor (producer thread)  readers: shard worker threads
  std::atomic<bool> stop_{false};
  util::ThreadPool pool_;  ///< exactly one thread per shard
  std::vector<std::future<void>> workers_;
};

}  // namespace pfp::engine
