#include "engine/prefetch_engine.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/binary_io.hpp"

namespace pfp::engine {

using core::policy::AccessOutcome;
using core::policy::Context;

namespace {

// --- snapshot stream format (little-endian, util/binary_io.hpp) --------

constexpr std::array<char, 4> kMagic = {'P', 'F', 'E', 'G'};
// v1: residency + metrics + a tree-or-nothing predictor flag byte.
// v2: residency + metrics + a predictor FourCC tag and a length-prefixed
//     opaque predictor blob (any policy family).  v1 images still load.
constexpr std::uint16_t kVersion = 2;
// Backstop against garbage length prefixes: no predictor state in this
// simulator approaches 1 GiB, so anything larger is a corrupt stream,
// not a big model — reject before trying to allocate it.
constexpr std::uint64_t kMaxPredictorBlobBytes = 1ull << 30;

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("engine snapshot stream: " + what);
}

}  // namespace

PrefetchEngine::PrefetchEngine(EngineConfig config)
    : config_((validate(config), config)),
      cache_(config.cache_blocks),
      disks_(cache::DiskConfig{config.disks, config.timing.t_disk}),
      policy_(config.policy),
      obs_(config.obs) {
  phase_clock_.arm(obs_.phase_cells());
}

Context PrefetchEngine::make_context() {
  Context ctx{cache_,      disks_, config_.timing, estimators_,
              stack_,      metrics_.policy};
  ctx.phases = phase_clock_.armed() ? &phase_clock_ : nullptr;
  return ctx;
}

void PrefetchEngine::publish_observability() {
#ifdef PFP_OBS
  // The engine's driving thread is the unique observability writer (the
  // class is single-threaded by contract; ShardedEngine gives each shard
  // its own engine).  Declare the roles once for the whole batch.
  auto& counters = obs_.counters();
  auto& gate = obs_.gate();
  counters.assert_writer();
  gate.assert_writer();
  gate.begin_write();
  counters.accesses.set(metrics_.accesses);
  counters.demand_hits.set(metrics_.demand_hits);
  counters.prefetch_hits.set(metrics_.prefetch_hits);
  counters.misses.set(metrics_.misses);
  counters.prefetches_issued.set(metrics_.policy.prefetches_issued);
  counters.prefetch_ejections.set(metrics_.policy.prefetch_ejections);
  counters.demand_ejections.set(metrics_.policy.demand_ejections);
  counters.disk_requests.set(metrics_.disk_requests);
  counters.resident_blocks.set(cache_.resident());
  counters.free_buffers.set(cache_.free_buffers());
  counters.tree_nodes.set(metrics_.policy.tree_nodes);
  counters.elapsed_virtual_us.set(
      static_cast<std::uint64_t>(metrics_.elapsed_ms * 1000.0));
  gate.end_write();
#endif
}

void PrefetchEngine::write_chrome_trace(std::ostream& out) const {
  const obs::TraceRing* rings[] = {&obs_.ring()};
  obs::write_chrome_trace(out, rings);
}

AccessOutcome PrefetchEngine::step_one(
    trace::BlockId block, std::uint64_t period,
    std::span<const trace::TraceRecord> upcoming, Context& ctx,
    [[maybe_unused]] bool publish_each) {
  const double period_start = metrics_.elapsed_ms;
  ctx.period = period;
  ctx.now_ms = period_start;
  ctx.upcoming = upcoming;
  phase_clock_.start();
#ifdef PFP_OBS
  const bool tracing = obs_.ring().enabled();
  const std::uint64_t ejections_before =
      tracing ? metrics_.policy.prefetch_ejections +
                    metrics_.policy.demand_ejections
              : 0;
#endif

  const auto result = cache_.access(block);
  ++metrics_.accesses;

  // Every access period: read the block from the cache and compute.
  metrics_.elapsed_ms += config_.timing.t_hit + config_.timing.t_cpu;

  AccessOutcome outcome;
  if (const auto* hit = std::get_if<cache::DemandHit>(&result)) {
    outcome = AccessOutcome::kDemandHit;
    ++metrics_.demand_hits;
    stack_.record(/*hit=*/true, hit->stack_depth);
    phase_clock_.mark(util::EnginePhase::kLookup);
  } else if (const auto* pf = std::get_if<cache::PrefetchHit>(&result)) {
    outcome = AccessOutcome::kPrefetchHit;
    ++metrics_.prefetch_hits;
    stack_.record(/*hit=*/false);
    // Residual stall: the prefetch's disk read may not have completed by
    // the time its block is referenced (Figure 5's partial overlap).
    const double stall =
        std::max(pf->entry.completion_ms - period_start, 0.0);
    metrics_.elapsed_ms += stall;
    metrics_.stall_ms += stall;
    phase_clock_.mark(util::EnginePhase::kLookup);
    // Consumption feeds the estimator EWMAs, so its time is charged to
    // the predictor-update phase (closed by the policy's own mark).
    estimators_.prefetch_outcome(/*accessed=*/true, pf->entry.obl);
  } else {
    outcome = AccessOutcome::kMiss;
    ++metrics_.misses;
    stack_.record(/*hit=*/false);
    metrics_.elapsed_ms += config_.timing.t_driver;
    const double completion = disks_.submit(block, metrics_.elapsed_ms);
    const double stall = completion - metrics_.elapsed_ms;
    metrics_.elapsed_ms = completion;
    metrics_.stall_ms += stall;
    phase_clock_.mark(util::EnginePhase::kLookup);
    if (cache_.free_buffers() == 0) {
      policy_.reclaim_for_demand(ctx);
      PFP_REQUIRE(cache_.free_buffers() >= 1);
    }
    cache_.admit_demand(block);
    phase_clock_.mark(util::EnginePhase::kEviction);
  }

  // Policy turn: learn from the access, then issue this period's
  // prefetches; each costs T_driver of CPU time (Figure 3b).
  const std::uint64_t issued_before = metrics_.policy.prefetches_issued;
  policy_.on_access(block, outcome, ctx);
  const std::uint64_t issued =
      metrics_.policy.prefetches_issued - issued_before;
  metrics_.elapsed_ms +=
      static_cast<double>(issued) * config_.timing.t_driver;

  // Keep the disk aggregates current so push-style users see fresh
  // metrics without a run epilogue.
  metrics_.disk_queue_delay_ms = disks_.queue_delay_ms();
  metrics_.disk_requests = disks_.requests();
  // Closes the policy turn: for tree policies this spans the issue loop
  // and end_period; policies without internal marks land whole here.
  phase_clock_.mark(util::EnginePhase::kIssue);

#ifdef PFP_OBS
  if (publish_each) {
    publish_observability();
  }
  if (tracing) {
    // Same single-threaded contract as publish_observability(): this
    // thread is the ring's unique writer.
    auto& ring = obs_.ring();
    ring.assert_writer();
    obs::TraceEvent event;
    event.block = block;
    event.ts_ms = period_start;
    event.dur_ms = metrics_.elapsed_ms - period_start;
    event.kind = obs::EventKind::kAccess;
    event.arg = static_cast<std::uint32_t>(
        outcome == AccessOutcome::kDemandHit
            ? obs::EventOutcome::kDemandHit
            : (outcome == AccessOutcome::kPrefetchHit
                   ? obs::EventOutcome::kPrefetchHit
                   : obs::EventOutcome::kMiss));
    ring.emit(event);
    if (issued > 0) {
      event.kind = obs::EventKind::kPrefetchIssue;
      event.arg = static_cast<std::uint32_t>(issued);
      ring.emit(event);
    }
    const std::uint64_t ejected = metrics_.policy.prefetch_ejections +
                                  metrics_.policy.demand_ejections -
                                  ejections_before;
    if (ejected > 0) {
      event.kind = obs::EventKind::kEviction;
      event.arg = static_cast<std::uint32_t>(ejected);
      ring.emit(event);
    }
  }
#endif

  PFP_DASSERT(cache_.resident() <= cache_.total_blocks());
  return outcome;
}

AccessResult PrefetchEngine::access(trace::BlockId block) {
  Context ctx = make_context();
  const double elapsed_before = metrics_.elapsed_ms;
  const AccessOutcome outcome =
      step_one(block, metrics_.accesses, {}, ctx);

  AccessResult result;
  switch (outcome) {
    case AccessOutcome::kDemandHit:
      result.outcome = Outcome::kDemandHit;
      break;
    case AccessOutcome::kPrefetchHit:
      result.outcome = Outcome::kPrefetchHit;
      break;
    case AccessOutcome::kMiss:
      result.outcome = Outcome::kMiss;
      break;
  }
  // Everything the period charged except the caller's own compute.
  result.latency_ms =
      metrics_.elapsed_ms - elapsed_before - config_.timing.t_cpu;
  return result;
}

void PrefetchEngine::step(const trace::Trace& trace, std::size_t index) {
  Context ctx = make_context();
  step_one(trace[index].block, index, trace.records().subspan(index + 1),
           ctx);
}

BatchResult PrefetchEngine::access_many(
    std::span<const trace::BlockId> blocks) {
  const Metrics before = metrics_;
  // Per-access setup (Context build, observability publish) is hoisted
  // to the batch boundary.  `period` is the running access counter —
  // exactly what the push-one path passes — so batched and push-one
  // streams are bit-identical.
  Context ctx = make_context();
  for (const trace::BlockId block : blocks) {
    step_one(block, metrics_.accesses, {}, ctx, /*publish_each=*/false);
  }
  publish_observability();

  BatchResult result;
  result.demand_hits = metrics_.demand_hits - before.demand_hits;
  result.prefetch_hits = metrics_.prefetch_hits - before.prefetch_hits;
  result.misses = metrics_.misses - before.misses;
  result.latency_ms =
      metrics_.elapsed_ms - before.elapsed_ms -
      static_cast<double>(blocks.size()) * config_.timing.t_cpu;
  return result;
}

void PrefetchEngine::run_trace(const trace::Trace& trace) {
  // The batched loop with the trace index as `period` and the rest of
  // the trace as `upcoming` (only the oracles read it).  On a fresh
  // engine the index equals the running access counter, so this is the
  // access_many stream; on a warm one it is the step() loop.
  Context ctx = make_context();
  const std::span<const trace::TraceRecord> records = trace.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    step_one(records[i].block, i, records.subspan(i + 1), ctx,
             /*publish_each=*/false);
  }
  publish_observability();
}

void PrefetchEngine::snapshot(std::ostream& out) const {
  out.write(kMagic.data(), kMagic.size());
  util::write_u16(out, kVersion);
  util::write_u64(out, config_.cache_blocks);

  util::write_u64(out, metrics_.accesses);
  util::write_u64(out, metrics_.demand_hits);
  util::write_u64(out, metrics_.prefetch_hits);
  util::write_u64(out, metrics_.misses);
  util::write_f64(out, metrics_.elapsed_ms);
  util::write_f64(out, metrics_.stall_ms);
  util::write_f64(out, metrics_.disk_queue_delay_ms);
  util::write_u64(out, metrics_.disk_requests);

  const auto& p = metrics_.policy;
  util::write_u64(out, p.prefetches_issued);
  util::write_u64(out, p.obl_prefetches_issued);
  util::write_u64(out, p.tree_prefetches_issued);
  util::write_f64(out, p.sum_prefetch_probability);
  util::write_u64(out, p.candidates_chosen);
  util::write_u64(out, p.candidates_already_cached);
  util::write_u64(out, p.prefetch_ejections);
  util::write_u64(out, p.demand_ejections);
  util::write_u64(out, p.predictable);
  util::write_u64(out, p.predictable_uncached);
  util::write_u64(out, p.lvc_opportunities);
  util::write_u64(out, p.lvc_followed);
  util::write_u64(out, p.lvc_checks);
  util::write_u64(out, p.lvc_cached);
  util::write_u64(out, p.tree_nodes);
  util::write_u64(out, p.tree_bytes);

  const auto demand_blocks = cache_.demand().blocks_lru_to_mru();
  util::write_u64(out, demand_blocks.size());
  for (const trace::BlockId block : demand_blocks) {
    util::write_u64(out, block);
  }

  const auto prefetch_entries = cache_.prefetch().entries();
  util::write_u64(out, prefetch_entries.size());
  for (const cache::PrefetchEntry& entry : prefetch_entries) {
    util::write_u64(out, entry.block);
    util::write_f64(out, entry.probability);
    util::write_u32(out, entry.depth);
    util::write_f64(out, entry.eject_cost);
    out.put(entry.obl ? '\1' : '\0');
    util::write_u64(out, entry.issued_period);
    util::write_f64(out, entry.completion_ms);
  }

  // Predictor state rides as an opaque, length-prefixed blob keyed by the
  // policy's FourCC tag — the engine never learns the family's format.
  const std::uint32_t tag = policy_.predictor_state_tag();
  util::write_u32(out, tag);
  if (tag != core::policy::kPredictorNone) {
    std::ostringstream blob;
    policy_.save_predictor_state(blob);
    const std::string bytes = std::move(blob).str();
    util::write_u64(out, bytes.size());
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

void PrefetchEngine::restore(std::istream& in) {
  if (metrics_.accesses != 0 || cache_.resident() != 0) {
    throw std::runtime_error(
        "engine snapshot restore requires a freshly constructed engine");
  }

  std::array<char, 4> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) {
    corrupt("bad magic");
  }
  const std::uint16_t version = util::read_u16(in);
  if (version != 1 && version != 2) {
    corrupt("unsupported version");
  }
  if (util::read_u64(in) != config_.cache_blocks) {
    corrupt("cache_blocks mismatch with the configured engine");
  }

  Metrics restored;
  restored.accesses = util::read_u64(in);
  restored.demand_hits = util::read_u64(in);
  restored.prefetch_hits = util::read_u64(in);
  restored.misses = util::read_u64(in);
  restored.elapsed_ms = util::read_f64(in);
  restored.stall_ms = util::read_f64(in);
  restored.disk_queue_delay_ms = util::read_f64(in);
  restored.disk_requests = util::read_u64(in);

  auto& p = restored.policy;
  p.prefetches_issued = util::read_u64(in);
  p.obl_prefetches_issued = util::read_u64(in);
  p.tree_prefetches_issued = util::read_u64(in);
  p.sum_prefetch_probability = util::read_f64(in);
  p.candidates_chosen = util::read_u64(in);
  p.candidates_already_cached = util::read_u64(in);
  p.prefetch_ejections = util::read_u64(in);
  p.demand_ejections = util::read_u64(in);
  p.predictable = util::read_u64(in);
  p.predictable_uncached = util::read_u64(in);
  p.lvc_opportunities = util::read_u64(in);
  p.lvc_followed = util::read_u64(in);
  p.lvc_checks = util::read_u64(in);
  p.lvc_cached = util::read_u64(in);
  p.tree_nodes = util::read_u64(in);
  p.tree_bytes = util::read_u64(in);

  const std::uint64_t demand_count = util::read_u64(in);
  if (!in || demand_count > config_.cache_blocks) {
    corrupt("demand residency exceeds the buffer pool");
  }
  for (std::uint64_t i = 0; i < demand_count; ++i) {
    const trace::BlockId block = util::read_u64(in);
    if (!in) {
      corrupt("truncated demand residency list");
    }
    if (cache_.contains(block)) {
      corrupt("duplicate block in demand residency list");
    }
    cache_.admit_demand(block);
  }

  const std::uint64_t prefetch_count = util::read_u64(in);
  if (!in || demand_count + prefetch_count > config_.cache_blocks) {
    corrupt("residency exceeds the buffer pool");
  }
  for (std::uint64_t i = 0; i < prefetch_count; ++i) {
    cache::PrefetchEntry entry;
    entry.block = util::read_u64(in);
    entry.probability = util::read_f64(in);
    entry.depth = util::read_u32(in);
    entry.eject_cost = util::read_f64(in);
    entry.obl = in.get() == '\1';
    entry.issued_period = util::read_u64(in);
    entry.completion_ms = util::read_f64(in);
    if (!in) {
      corrupt("truncated prefetch residency list");
    }
    if (cache_.contains(entry.block)) {
      corrupt("duplicate block in prefetch residency list");
    }
    cache_.admit_prefetch(entry);
  }

  if (version == 1) {
    // v1 images could only carry LZ-tree state: a flag byte followed by
    // the raw PFTR stream, exactly the bytes a tree policy's
    // load_predictor_state consumes today.
    const int tree_flag = in.get();
    if (tree_flag != '\0' && tree_flag != '\1') {
      corrupt("truncated predictor-tree flag");
    }
    if (tree_flag == '\1') {
      if (policy_.predictor_state_tag() != core::policy::kPredictorTree) {
        corrupt("snapshot carries a predictor tree but the configured "
                "policy has none");
      }
      if (!policy_.load_predictor_state(in) || !in) {
        corrupt("predictor-tree stream rejected by the policy");
      }
    }
  } else {
    const std::uint32_t tag = util::read_u32(in);
    if (!in) {
      corrupt("truncated predictor tag");
    }
    const std::uint32_t live_tag = policy_.predictor_state_tag();
    if (tag != live_tag) {
      corrupt("predictor kind mismatch: snapshot carries " +
              core::policy::predictor_tag_name(tag) +
              " state but the configured policy keeps " +
              core::policy::predictor_tag_name(live_tag));
    }
    if (tag != core::policy::kPredictorNone) {
      const std::uint64_t blob_bytes = util::read_u64(in);
      if (!in || blob_bytes > kMaxPredictorBlobBytes) {
        corrupt("implausible predictor blob length");
      }
      std::string bytes(static_cast<std::size_t>(blob_bytes), '\0');
      in.read(bytes.data(), static_cast<std::streamsize>(blob_bytes));
      if (!in) {
        corrupt("truncated predictor blob");
      }
      std::istringstream blob(std::move(bytes));
      if (!policy_.load_predictor_state(blob)) {
        corrupt("predictor blob rejected by the policy");
      }
      if (blob.peek() != std::istream::traits_type::eof()) {
        corrupt("predictor blob has trailing bytes");
      }
    }
  }

  metrics_ = restored;
  publish_observability();
}

}  // namespace pfp::engine
