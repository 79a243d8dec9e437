// End-to-end SIM_AUDIT coverage: drive real simulations and sweep the
// buffer-cache invariants periodically.  The unit detection tests prove
// each audit *can* fire; this proves the real simulator keeps every
// invariant across all four paper workloads and the main policy shapes.
// Skips when built without SIM_AUDIT (the sanitizer CI legs enable it).
#include <gtest/gtest.h>

#include <cstddef>

#include "core/policy/factory.hpp"
#include "sim/simulator.hpp"
#include "trace/workloads.hpp"
#include "util/audit.hpp"

namespace pfp::sim {
namespace {

class SimulatorAuditSweep
    : public ::testing::TestWithParam<trace::Workload> {
 protected:
  void SetUp() override {
    if (!PFP_AUDIT_ENABLED) {
      GTEST_SKIP() << "built without SIM_AUDIT; sweeps are no-ops";
    }
  }
};

TEST_P(SimulatorAuditSweep, InvariantsHoldThroughoutRun) {
  using core::policy::PolicyKind;
  const trace::Trace t = trace::make_workload(GetParam(), 2'000, /*seed=*/7);
  for (const PolicyKind kind :
       {PolicyKind::kTree, PolicyKind::kNextLimit, PolicyKind::kProbGraph}) {
    engine::EngineConfig config;
    config.cache_blocks = 64;
    config.policy.kind = kind;
    Simulator simulator(config);
    for (std::size_t i = 0; i < t.size(); ++i) {
      simulator.step(t, i);
      if (i % 50 == 0) {
        // The default abort handler is active: a violated invariant kills
        // the test with the audit message rather than failing an EXPECT.
        simulator.buffer_cache().audit();
        simulator.prefetcher().audit();
      }
    }
    simulator.buffer_cache().audit();
    simulator.prefetcher().audit();
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SimulatorAuditSweep,
                         ::testing::ValuesIn(trace::all_workloads()),
                         [](const auto& param_info) {
                           return trace::workload_name(param_info.param);
                         });

}  // namespace
}  // namespace pfp::sim
