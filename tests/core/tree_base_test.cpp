// The tree predictor's instrumentation (observe_tree): the exact metric
// semantics the paper's Tables 2/3 and Figures 14/16 rely on.
#include <gtest/gtest.h>

#include "core/policy/prefetcher.hpp"
#include "policy_harness.hpp"

namespace pfp::core::policy {
namespace {

using testing::Harness;

TEST(TreeBase, PredictableCountsChildMatches) {
  Harness h(16);
  tree::PrefetchTree lz;
  // First visit: nothing predictable.
  observe_tree(lz, 1, AccessOutcome::kMiss, h.ctx);
  EXPECT_EQ(h.metrics.predictable, 0u);
  // Second visit of 1 from the root: predictable.
  observe_tree(lz, 1, AccessOutcome::kMiss, h.ctx);
  EXPECT_EQ(h.metrics.predictable, 1u);
}

TEST(TreeBase, PredictableUncachedNeedsMissOutcome) {
  Harness h(16);
  tree::PrefetchTree lz;
  observe_tree(lz, 1, AccessOutcome::kMiss, h.ctx);
  // Predictable + demand hit: cached, so not counted as uncached.
  observe_tree(lz, 1, AccessOutcome::kDemandHit, h.ctx);
  EXPECT_EQ(h.metrics.predictable, 1u);
  EXPECT_EQ(h.metrics.predictable_uncached, 0u);
  // Reset parse to root via new block, then revisit 1 as a miss.
  observe_tree(lz, 99, AccessOutcome::kMiss, h.ctx);   // at node 1: new
  observe_tree(lz, 1, AccessOutcome::kMiss, h.ctx);    // from root: match
  EXPECT_EQ(h.metrics.predictable, 2u);
  EXPECT_EQ(h.metrics.predictable_uncached, 1u);
}

TEST(TreeBase, LvcCountersFollowTable3Semantics) {
  Harness h(16);
  tree::PrefetchTree lz;
  // Build root children 1 and 2 (each access from root).
  observe_tree(lz, 1, AccessOutcome::kMiss, h.ctx);
  observe_tree(lz, 2, AccessOutcome::kMiss, h.ctx);
  EXPECT_EQ(h.metrics.lvc_opportunities, 1u);  // 2nd access saw lvc=1
  EXPECT_EQ(h.metrics.lvc_followed, 0u);
  // Access 2 again from root: lvc is now 2 -> followed.
  observe_tree(lz, 2, AccessOutcome::kMiss, h.ctx);
  EXPECT_EQ(h.metrics.lvc_opportunities, 2u);
  EXPECT_EQ(h.metrics.lvc_followed, 1u);
}

TEST(TreeBase, LvcCachedChecksResidency) {
  Harness h(16);
  tree::PrefetchTree lz;
  // Parse: (1)(1,2): after the second "1" the parse sits at node 1 whose
  // lvc will exist once child 2 is created.
  observe_tree(lz, 1, AccessOutcome::kMiss, h.ctx);
  observe_tree(lz, 1, AccessOutcome::kMiss, h.ctx);
  observe_tree(lz, 2, AccessOutcome::kMiss, h.ctx);  // creates 1->2, reset
  const auto checks_before = h.metrics.lvc_checks;
  // Revisit 1: parse lands at node 1, which has lvc (block 2).  Block 2
  // is not cached -> lvc_checks grows, lvc_cached does not.
  observe_tree(lz, 1, AccessOutcome::kMiss, h.ctx);
  EXPECT_EQ(h.metrics.lvc_checks, checks_before + 1);
  EXPECT_EQ(h.metrics.lvc_cached, 0u);
  // Cache block 2, then steer node 1's lvc back to its 2-child (creating
  // any node overwrites the parent's lvc, so re-traverse the 1->2 edge)
  // and land on node 1 once more.
  h.demand(2);
  observe_tree(lz, 2, AccessOutcome::kDemandHit, h.ctx);  // 1 -> 2-child
  observe_tree(lz, 7, AccessOutcome::kMiss, h.ctx);       // reset to root
  const auto cached_before = h.metrics.lvc_cached;
  observe_tree(lz, 1, AccessOutcome::kMiss, h.ctx);       // at node 1
  EXPECT_EQ(h.metrics.lvc_cached, cached_before + 1);
}

TEST(TreeBase, TreeSizeMetricsTrackLiveTree) {
  Harness h(16);
  tree::PrefetchTree lz;
  observe_tree(lz, 1, AccessOutcome::kMiss, h.ctx);
  observe_tree(lz, 2, AccessOutcome::kMiss, h.ctx);
  EXPECT_EQ(h.metrics.tree_nodes, 3u);  // root + 2
  EXPECT_EQ(h.metrics.tree_bytes, 3u * 40u);
}

}  // namespace
}  // namespace pfp::core::policy
