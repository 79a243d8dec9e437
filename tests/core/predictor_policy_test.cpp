// The markov / assoc policies under the generic predictor-state
// interface: candidate flow into the shared cost-benefit loop and the
// opaque serialize/restore round trip.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/policy/prefetcher.hpp"
#include "policy_harness.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace pfp::core::policy {
namespace {

using sim::simulate;

trace::Trace strided_trace(std::size_t n, trace::BlockId stride) {
  trace::Trace t("stride");
  for (std::size_t i = 0; i < n; ++i) {
    t.append(static_cast<trace::BlockId>(i) * stride);
  }
  return t;
}

trace::Trace interleaved_pair_trace(int reps) {
  // 100 -> 200 always separated by one fresh noise block: invisible to
  // first-order chains, visible to the windowed association miner.
  trace::Trace t("interleaved");
  trace::BlockId noise = 1'000'000;
  for (int rep = 0; rep < reps; ++rep) {
    t.append(100);
    t.append(noise++);
    t.append(200);
    t.append(noise++);
    t.append(noise++);
  }
  return t;
}

engine::EngineConfig config_for(PolicyKind kind, std::size_t blocks = 64) {
  engine::EngineConfig c;
  c.cache_blocks = blocks;
  c.policy.kind = kind;
  return c;
}

PolicySpec spec_for(PolicyKind kind) {
  PolicySpec spec;
  spec.kind = kind;
  return spec;
}

/// Hand-feeds a trace through a bare policy (no engine): enough to train
/// the predictor model for the state round-trip tests.
void feed(Prefetcher& policy, testing::Harness& h, const trace::Trace& t) {
  for (const trace::TraceRecord& r : t) {
    const AccessOutcome outcome = h.cache.contains(r.block)
                                      ? AccessOutcome::kDemandHit
                                      : AccessOutcome::kMiss;
    policy.on_access(r.block, outcome, h.ctx);
    h.ctx.now_ms += 15.0;
    ++h.ctx.period;
  }
}

TEST(MarkovPolicy, PrefetchesALearnedStride) {
  // A strided scan revisits no block, so the LZ tree can only predict
  // already-seen (never re-referenced) blocks; the delta chain collapses
  // the scan onto a single certain transition and prefetches ahead.
  const trace::Trace t = strided_trace(3'000, 4);
  const auto tree = simulate(config_for(PolicyKind::kTree), t);
  const auto markov = simulate(config_for(PolicyKind::kMarkov), t);
  EXPECT_EQ(tree.metrics.prefetch_hits, 0u);
  EXPECT_GT(markov.metrics.prefetch_hits, 2'000u);
  EXPECT_LT(markov.metrics.miss_rate(), 0.5);
}

TEST(MarkovPolicy, ReportsPredictorSizeCounters) {
  const auto r =
      simulate(config_for(PolicyKind::kMarkov), strided_trace(500, 4));
  // The tree_* counters double as generic predictor-size gauges.
  EXPECT_GT(r.metrics.policy.tree_nodes, 0u);
  EXPECT_GT(r.metrics.policy.tree_bytes, 0u);
}

/// The opaque predictor blob a policy saves.
std::string saved_state(const Prefetcher& policy) {
  std::stringstream blob;
  policy.save_predictor_state(blob);
  return blob.str();
}

/// Restores `trained`'s blob into a fresh policy of the same spec and
/// checks the restored predictor saves the identical bytes.
void expect_state_round_trips(const PolicySpec& spec, Prefetcher& trained,
                              std::uint32_t tag) {
  EXPECT_EQ(trained.predictor_state_tag(), tag);
  const std::string blob = saved_state(trained);
  ASSERT_NE(blob, saved_state(Prefetcher(spec))) << "nothing was learned";

  Prefetcher restored(spec);
  std::stringstream in(blob);
  EXPECT_TRUE(restored.load_predictor_state(in));
  EXPECT_EQ(saved_state(restored), blob);
}

TEST(MarkovPolicy, PredictorStateRoundTripsThroughTheVirtuals) {
  testing::Harness h(64);
  const PolicySpec spec = spec_for(PolicyKind::kMarkov);
  Prefetcher trained(spec);
  feed(trained, h, strided_trace(200, 4));
  expect_state_round_trips(spec, trained, kPredictorMarkov);
}

TEST(MarkovPolicy, LoadRejectsForeignBlobs) {
  Prefetcher policy(spec_for(PolicyKind::kMarkov));
  std::stringstream junk("PFTRnot-a-markov-stream");
  EXPECT_THROW(policy.load_predictor_state(junk), std::runtime_error);
}

trace::Trace rotating_pairs_trace(int cycles, int pairs) {
  // Pairs (A_i -> A_i + 500) visited round-robin with fresh noise blocks
  // between and after them.  With more pairs than cache blocks a pair is
  // long evicted when it comes around again, so only prediction — not
  // residency — can produce hits; the ever-fresh noise block inside each
  // pair hides the association from first-order delta chains.
  trace::Trace t("pairs");
  trace::BlockId noise = 1'000'000;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (int i = 0; i < pairs; ++i) {
      const trace::BlockId a =
          10'000 + static_cast<trace::BlockId>(i) * 1'000;
      t.append(a);
      t.append(noise++);
      t.append(a + 500);
      t.append(noise++);
      t.append(noise++);
    }
  }
  return t;
}

TEST(AssocPolicy, PrefetchesAMinedAssociation) {
  const trace::Trace t = rotating_pairs_trace(20, 96);
  const auto markov = simulate(config_for(PolicyKind::kMarkov), t);
  const auto assoc = simulate(config_for(PolicyKind::kAssoc), t);
  EXPECT_GT(assoc.metrics.prefetch_hits, 1'000u);
  EXPECT_GT(assoc.metrics.prefetch_hits, markov.metrics.prefetch_hits);
}

TEST(AssocPolicy, PredictorStateRoundTripsThroughTheVirtuals) {
  testing::Harness h(64);
  PolicySpec spec = spec_for(PolicyKind::kAssoc);
  spec.assoc.miner.window = 16;
  spec.assoc.miner.lookahead = 4;
  Prefetcher trained(spec);
  feed(trained, h, interleaved_pair_trace(8));
  expect_state_round_trips(spec, trained, kPredictorAssoc);
}

TEST(AssocPolicy, LoadRejectsForeignBlobs) {
  Prefetcher policy(spec_for(PolicyKind::kAssoc));
  std::stringstream junk("PFMKnot-an-association-stream");
  EXPECT_THROW(policy.load_predictor_state(junk), std::runtime_error);
}

TEST(PredictorInterface, BaselinePoliciesCarryNoState) {
  Prefetcher policy(PolicySpec{});  // kNoPrefetch
  EXPECT_EQ(policy.predictor_state_tag(), kPredictorNone);
  std::stringstream blob;
  policy.save_predictor_state(blob);
  EXPECT_TRUE(blob.str().empty());
  EXPECT_FALSE(policy.load_predictor_state(blob));
}

TEST(PredictorInterface, TagNamesAreHumanReadable) {
  EXPECT_EQ(predictor_tag_name(kPredictorNone), "none");
  EXPECT_EQ(predictor_tag_name(kPredictorTree), "tree");
  EXPECT_EQ(predictor_tag_name(kPredictorMarkov), "markov");
  EXPECT_EQ(predictor_tag_name(kPredictorAssoc), "assoc");
  // Unknown tags print as hex so snapshot mismatch errors stay debuggable.
  EXPECT_EQ(predictor_tag_name(0xdeadbeefu), "0xdeadbeef");
}

TEST(PredictorInterface, FactoryKindsReportTheirFamilyTag) {
  const struct {
    PolicyKind kind;
    std::uint32_t tag;
  } expected[] = {
      {PolicyKind::kNoPrefetch, kPredictorNone},
      {PolicyKind::kNextLimit, kPredictorNone},
      {PolicyKind::kTree, kPredictorTree},
      {PolicyKind::kTreeNextLimit, kPredictorTree},
      {PolicyKind::kTreeLvc, kPredictorTree},
      {PolicyKind::kPerfectSelector, kPredictorTree},
      {PolicyKind::kTreeThreshold, kPredictorTree},
      {PolicyKind::kTreeChildren, kPredictorTree},
      {PolicyKind::kProbGraph, kPredictorNone},
      {PolicyKind::kTreeAdaptive, kPredictorTree},
      {PolicyKind::kMarkov, kPredictorMarkov},
      {PolicyKind::kAssoc, kPredictorAssoc},
  };
  EXPECT_EQ(std::size(expected), all_policy_kinds().size());
  for (const auto& row : expected) {
    const Prefetcher policy(spec_for(row.kind));
    EXPECT_EQ(policy.predictor_state_tag(), row.tag) << kind_name(row.kind);
  }
}

}  // namespace
}  // namespace pfp::core::policy
