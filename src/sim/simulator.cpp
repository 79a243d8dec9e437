#include "sim/simulator.hpp"

namespace pfp::sim {

Result simulate(const engine::EngineConfig& config, const trace::Trace& trace) {
  engine::PrefetchEngine eng(config);
  eng.run_trace(trace);
  Result result;
  result.config = eng.config();
  result.policy_name = eng.prefetcher().name();
  result.trace_name = trace.name();
  result.metrics = eng.metrics();
  return result;
}

}  // namespace pfp::sim
