// The per-access prefetching state machine (cache lookup -> predictor
// update -> candidate enumeration -> cost-benefit decision -> prefetch
// issue -> eviction), extracted from the trace-replay harness so hosts
// can embed it.
//
// One engine owns one partitioned buffer cache, one policy instance and
// one set of cost-benefit estimators, and is driven push-style:
//
//   engine::PrefetchEngine eng(config);
//   for (;;) {
//     const auto r = eng.access(next_block());
//     if (r.outcome == engine::Outcome::kMiss) { ... }
//   }
//
// The trace driver (sim::simulate) is one run_trace() call on this
// class; every entry point runs the same per-access step, so replay
// throughput and embedded behaviour can never drift apart.
// Layering: engine/ sits between core/ and sim/ and must not include
// sim/ (enforced by scripts/lint/check_conventions.py).
#pragma once

#include <iosfwd>
#include <span>

#include "cache/buffer_cache.hpp"
#include "cache/disk_model.hpp"
#include "cache/stack_distance.hpp"
#include "core/costben/estimator.hpp"
#include "core/policy/prefetcher.hpp"
#include "engine/config.hpp"
#include "engine/metrics.hpp"
#include "obs/engine_obs.hpp"
#include "trace/trace.hpp"
#include "util/phase.hpp"

namespace pfp::engine {

enum class Outcome { kDemandHit, kPrefetchHit, kMiss };

struct AccessResult {
  Outcome outcome = Outcome::kMiss;
  /// Modeled latency of this access under the timing model (ms): T_hit
  /// for hits, plus residual prefetch stall or the full driver+disk
  /// penalty for misses, plus the driver time of prefetches issued this
  /// period.  Excludes T_cpu (the caller's compute is theirs).
  double latency_ms = 0.0;
};

/// Aggregate of one access_many() batch, folded from the same per-access
/// state machine the push-one path runs.
struct BatchResult {
  std::uint64_t demand_hits = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t misses = 0;
  /// Sum of per-access latency_ms over the batch (same exclusion of
  /// T_cpu as AccessResult::latency_ms).
  double latency_ms = 0.0;
};

class PrefetchEngine {
 public:
  /// Validates the configuration (see engine::validate) and builds the
  /// policy; throws std::invalid_argument on a bad config.
  explicit PrefetchEngine(EngineConfig config);

  /// Push-style entry point: feeds one block reference through the state
  /// machine — cache access, timing charges, predictor learning,
  /// prefetch issue — and reports what happened.
  AccessResult access(trace::BlockId block);

  /// Batched push: feeds a whole run of references through the same
  /// state machine with the per-access setup hoisted out of the inner
  /// loop — the Context is built once and the observability mirror is
  /// published once per batch instead of once per access (one
  /// stats-gate write section; the trace ring still records every
  /// access).  Bit-identical to calling access() for each
  /// block in order — metrics, decisions and final observability all
  /// match; only the live-scrape granularity coarsens to batch
  /// boundaries.  This is the shard workers' pull path.
  BatchResult access_many(std::span<const trace::BlockId> blocks);

  /// Replay entry point for one trace position; identical to access()
  /// except oracle policies can see the rest of the trace.
  void step(const trace::Trace& trace, std::size_t index);

  /// Replay entry point for a whole trace.  Bit-identical to calling
  /// step() for each index in order; like access_many() it publishes
  /// observability once, at the end.
  void run_trace(const trace::Trace& trace);

  [[nodiscard]] const cache::BufferCache& buffer_cache() const noexcept {
    return cache_;
  }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const core::policy::Prefetcher& prefetcher() const noexcept {
    return policy_;
  }
  [[nodiscard]] const EngineConfig& config() const noexcept {
    return config_;
  }

  /// Persists the engine's durable state as a compact binary stream: the
  /// trained predictor tree (via core/tree/serialize), both cache
  /// residency sets, and the accumulated metrics.  Estimator EWMAs and
  /// in-flight disk state are transient and re-warm after restore.
  void snapshot(std::ostream& out) const;

  /// Rebuilds snapshot() state into this engine.  The engine must be
  /// freshly constructed with a matching cache size and policy shape;
  /// throws std::runtime_error on malformed input or mismatch.
  void restore(std::istream& in);

  /// Live observability snapshot: lock-free counters/gauges, per-phase
  /// latency histograms and trace-ring occupancy.  Safe to call from any
  /// thread while another thread drives access() — the read retries a
  /// seqlock for a consistent cut (docs/observability.md).  All zeros
  /// when PFP_OBS is compiled out.
  [[nodiscard]] obs::EngineStats stats() const { return obs_.stats(); }

  /// The live observability backend (trace-ring access for dump tools).
  [[nodiscard]] const obs::EngineObs& observability() const noexcept {
    return obs_;
  }

  /// Writes this engine's event ring as Chrome trace_event JSON
  /// (chrome://tracing / Perfetto).  Quiescent-read contract: call from
  /// the driving thread, or after the driver has provably stopped.
  void write_chrome_trace(std::ostream& out) const;

 private:
  // The per-access pipeline every entry point shares.  `publish_each`
  // lets the batched paths hoist the per-access observability publish
  // out of the inner loop (they publish once per batch); it never
  // affects metrics or decisions.
  core::policy::AccessOutcome step_one(
      trace::BlockId block, std::uint64_t period,
      std::span<const trace::TraceRecord> upcoming,
      core::policy::Context& ctx, bool publish_each = true);
  [[nodiscard]] core::policy::Context make_context();
  /// Publishes the deterministic metrics into the lock-free obs cells
  /// (one SnapshotGate write section); no-op when PFP_OBS is off.
  void publish_observability();

  EngineConfig config_;
  cache::BufferCache cache_;
  cache::DiskArray disks_;
  cache::StackDistanceEstimator stack_;
  core::costben::Estimators estimators_;
  core::policy::Prefetcher policy_;
  Metrics metrics_;
  obs::EngineObs obs_;
  util::PhaseStopwatch phase_clock_;
};

}  // namespace pfp::engine
