// prob-graph's predictor: a first-order probability graph.
//
// A related-work baseline in the spirit of Griffioen & Appleton's
// "Reducing File System Latency Using a Predictive Approach" (the
// paper's reference [6], simplified to a one-access lookahead window):
// for every block keep counts of which blocks immediately followed it;
// the prob-graph policy prefetches the successors whose observed chance
// exceeds a threshold.  Unlike the LZ tree this keeps no context deeper
// than one block, so it confuses interleaved streams — comparing the two
// predictors is bench/abl02_predictor_duel.
#pragma once

#include <cstdint>
#include <vector>

#include "core/policy/context.hpp"
#include "util/flat_map.hpp"

namespace pfp::core::policy {

struct ProbGraphConfig {
  double min_probability = 0.2;    ///< successor chance cutoff
  std::uint32_t max_prefetches = 4;
  /// Successor lists are capped; the weakest edge is dropped when a new
  /// successor appears in a full list (keeps memory linear in blocks).
  std::uint32_t max_successors = 16;
};

class ProbGraph {
 public:
  struct Edge {
    BlockId successor = 0;
    std::uint32_t count = 0;
  };
  struct Node {
    std::uint64_t total = 0;          ///< departures observed from here
    std::vector<Edge> edges;          ///< sorted by count, descending
  };

  ProbGraph();  // default config
  explicit ProbGraph(ProbGraphConfig config);

  /// Records the transition from the previous reference to `block`.
  void observe(BlockId block);

  /// Departures observed from `block`; null if it never had a successor.
  [[nodiscard]] const Node* find(BlockId block) const;

  /// Observed P(next == successor | current == block); 0 if unknown.
  [[nodiscard]] double successor_probability(BlockId block, BlockId successor) const;

  [[nodiscard]] std::size_t tracked_blocks() const noexcept { return graph_.size(); }

 private:
  void record_transition(BlockId from, BlockId to);

  ProbGraphConfig config_;
  util::FlatMap<BlockId, Node> graph_;
  BlockId previous_ = 0;
  bool has_previous_ = false;
};

}  // namespace pfp::core::policy
