// The trace-driven simulator (Section 8).
//
// One call over engine::PrefetchEngine: the per-access state machine
// (cache lookup -> predictor update -> candidate enumeration ->
// cost-benefit decision -> prefetch issue -> eviction) and the Section 3
// timing charges live in the engine; simulate() replays a recorded trace
// through a fresh engine and names the result.  Hosts that need live
// state mid-run drive engine::PrefetchEngine::step() directly.
#pragma once

#include <string>

#include "engine/prefetch_engine.hpp"
#include "trace/trace.hpp"

namespace pfp::sim {

struct Result {
  engine::EngineConfig config;
  std::string policy_name;
  std::string trace_name;
  engine::Metrics metrics;
};

/// Replays the whole trace through a fresh engine built from `config`.
Result simulate(const engine::EngineConfig& config, const trace::Trace& trace);

}  // namespace pfp::sim
