// Policy construction from a declarative spec.
//
// Benches and examples describe a run as data (kind + parameters); a
// Prefetcher (prefetcher.hpp) is built from that data.  Keeping the spec a
// value type lets the sweep driver fan specs out across threads.
//
// Every kind is one composition of the same three parts — a predictor, a
// selector and optional add-ons — and compose() (factory.cpp) is the table
// that says which parts each kind is made of.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/assoc/association_miner.hpp"
#include "core/markov/markov_model.hpp"
#include "core/policy/cost_benefit.hpp"
#include "core/policy/prob_graph.hpp"
#include "core/tree/enumerator.hpp"
#include "core/tree/prefetch_tree.hpp"

namespace pfp::core::policy {

enum class PolicyKind {
  kNoPrefetch,
  kNextLimit,
  kTree,
  kTreeNextLimit,
  kTreeLvc,
  kPerfectSelector,
  kTreeThreshold,
  kTreeChildren,
  kProbGraph,  ///< first-order probability graph (related-work baseline)
  kTreeAdaptive,  ///< tree + adaptive precision floor (paper future work)
  kMarkov,  ///< delta-Markov chain under the cost-benefit controller
  kAssoc,   ///< association miner under the cost-benefit controller
};

/// LZ tree predictor parameters.
struct TreePolicyConfig {
  tree::TreeConfig tree;
  tree::EnumeratorLimits limits;
};

/// Pangloss-style delta-Markov predictor parameters (core/markov).
struct MarkovPolicyConfig {
  markov::MarkovConfig model;
  markov::MarkovPredictLimits limits;
};

/// MITHRIL-style association-miner parameters (core/assoc).  Association
/// candidates are parentless — the prediction is conditioned directly on
/// the observed access — so they use the parentless p_x convention
/// documented in costben/candidate.hpp and pay no Eq. 14 overhead.
struct AssocPolicyConfig {
  assoc::AssocConfig miner;
  assoc::AssocPredictLimits limits;
};

/// tree-adaptive's feedback floor (the paper's stated future work,
/// Section 9.2.2): the minimum candidate probability rises while the
/// measured tree-prefetch hit ratio h is poor and relaxes while h is
/// comfortably high.  bench/abl05_adaptive_precision measures it.
struct AdaptiveConfig {
  double h_low = 0.50;       ///< tighten the floor below this hit ratio
  double h_high = 0.85;      ///< relax the floor above this hit ratio
  double initial_floor = 0.02;
  double min_floor = 0.005;
  double max_floor = 0.60;
  double tighten_factor = 1.10;  ///< floor *= this when h < h_low
  double relax_factor = 0.95;    ///< floor *= this when h > h_high
};

struct PolicySpec {
  PolicyKind kind = PolicyKind::kNoPrefetch;
  TreePolicyConfig tree;          ///< LZ tree predictor parameters
  /// Cost-benefit controller knobs; every cost-benefit kind reads these.
  ControllerConfig controller;
  double obl_quota = 0.10;        ///< next-limit cache fraction
  double threshold = 0.05;        ///< tree-threshold parameter
  std::uint32_t children = 3;     ///< tree-children parameter
  ProbGraphConfig graph;          ///< prob-graph parameters
  AdaptiveConfig adaptive;        ///< tree-adaptive parameters
  MarkovPolicyConfig markov;      ///< markov parameters
  AssocPolicyConfig assoc;        ///< assoc parameters
};

/// The four headline schemes of Section 9.1, in paper order.
const std::vector<PolicyKind>& headline_policies();

/// Every PolicyKind, in enum order — the source of truth for exhaustive
/// sweeps and for kind_from_name's reverse lookup.
const std::vector<PolicyKind>& all_policy_kinds();

/// Stable name for a kind ("tree-next-limit", ...); parametric kinds get
/// their parameter appended by the live policy's name() instead.
std::string kind_name(PolicyKind kind);

/// Inverse of kind_name; throws std::invalid_argument on junk.
PolicyKind kind_from_name(const std::string& name);

/// True for the oracle kinds, which read the rest of the trace
/// (Context::upcoming) and so can only replay a recorded trace.
bool reads_upcoming(PolicyKind kind);

/// Engine-construction path: rejects every parameter value a policy
/// component would refuse as a precondition (fractions outside their
/// interval, zero counts, NaNs, an inconsistent adaptive floor) with a
/// std::invalid_argument naming the field.  engine::validate() calls this
/// before any policy is built, so misconfiguration fails loudly at
/// construction instead of aborting mid-run.
void validate_spec(const PolicySpec& spec);

// --- composition -------------------------------------------------------

/// Where a policy's candidates come from.
enum class PredictorKind {
  kNone,
  kTree,    ///< LZ prefetch tree (Section 2)
  kMarkov,  ///< delta-Markov chain
  kAssoc,   ///< association miner
  kGraph,   ///< first-order probability graph
};

/// How a policy picks among the candidates.
enum class SelectorKind {
  kNone,
  kCostBenefit,  ///< the Eq. 1-14 controller (run_cost_benefit_loop)
  kDirect,       ///< one-step successors, no cost model
  kPerfect,      ///< the Section 9.5 oracle: the next reference, if predicted
};

/// One row of the composition table.
struct Composition {
  static constexpr std::uint32_t kNoLimit =
      std::numeric_limits<std::uint32_t>::max();

  PredictorKind predictor = PredictorKind::kNone;
  /// Before the selector: one-block lookahead on misses and prefetch hits.
  bool obl = false;
  /// Before the predictor update: tree-adaptive's floor follows h.
  bool adaptive_floor = false;
  SelectorKind selector = SelectorKind::kNone;
  /// Cost-benefit pricing for candidates that are offered only once.
  bool single_offer = false;
  /// The direct selector walks the predictor's one-step successors most
  /// probable first and stops at the first one below min_probability,
  /// after max_considered successors or after max_issued prefetches.
  double min_probability = 0.0;
  std::uint32_t max_considered = kNoLimit;
  std::uint32_t max_issued = kNoLimit;
  /// After the selector: prefetch the last-visited child (Section 9.6).
  bool lvc = false;
  /// Victim rule when the selector needs a buffer for a prefetch.
  ReclaimRule admission_reclaim = ReclaimRule::kCostBased;
  /// Victim rule when a demand miss needs a buffer.
  ReclaimRule demand_reclaim = ReclaimRule::kCostBased;
};

/// The parts `spec.kind` is built from, with the spec's parameters
/// resolved into them.
Composition compose(const PolicySpec& spec);

}  // namespace pfp::core::policy
