#include "core/policy/factory.hpp"

#include <stdexcept>

#include "util/assert.hpp"

namespace pfp::core::policy {

const std::vector<PolicyKind>& headline_policies() {
  static const std::vector<PolicyKind> kAll = {
      PolicyKind::kNoPrefetch, PolicyKind::kNextLimit, PolicyKind::kTree,
      PolicyKind::kTreeNextLimit};
  return kAll;
}

const std::vector<PolicyKind>& all_policy_kinds() {
  static const std::vector<PolicyKind> kAll = {
      PolicyKind::kNoPrefetch,      PolicyKind::kNextLimit,
      PolicyKind::kTree,            PolicyKind::kTreeNextLimit,
      PolicyKind::kTreeLvc,         PolicyKind::kPerfectSelector,
      PolicyKind::kTreeThreshold,   PolicyKind::kTreeChildren,
      PolicyKind::kProbGraph,       PolicyKind::kTreeAdaptive,
      PolicyKind::kMarkov,          PolicyKind::kAssoc,
  };
  return kAll;
}

std::string kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNoPrefetch:
      return "no-prefetch";
    case PolicyKind::kNextLimit:
      return "next-limit";
    case PolicyKind::kTree:
      return "tree";
    case PolicyKind::kTreeNextLimit:
      return "tree-next-limit";
    case PolicyKind::kTreeLvc:
      return "tree-lvc";
    case PolicyKind::kPerfectSelector:
      return "perfect-selector";
    case PolicyKind::kTreeThreshold:
      return "tree-threshold";
    case PolicyKind::kTreeChildren:
      return "tree-children";
    case PolicyKind::kProbGraph:
      return "prob-graph";
    case PolicyKind::kTreeAdaptive:
      return "tree-adaptive";
    case PolicyKind::kMarkov:
      return "markov";
    case PolicyKind::kAssoc:
      return "assoc";
  }
  return "?";
}

PolicyKind kind_from_name(const std::string& name) {
  for (const PolicyKind kind : all_policy_kinds()) {
    if (kind_name(kind) == name) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown policy '" + name + "'");
}

bool reads_upcoming(PolicyKind kind) {
  return kind == PolicyKind::kPerfectSelector;
}

namespace {

void reject(const std::string& what) {
  throw std::invalid_argument("PolicySpec: " + what);
}

// !(value in range) instead of direct comparison so NaN is rejected too.
void require_fraction(double value, const char* field) {
  if (!(value >= 0.0 && value <= 1.0)) {
    reject(std::string(field) + " must be in [0, 1] (got " +
           std::to_string(value) + ")");
  }
}

// For the fractions whose component asserts they are positive.
void require_positive_fraction(double value, const char* field) {
  if (!(value > 0.0 && value <= 1.0)) {
    reject(std::string(field) + " must be in (0, 1] (got " +
           std::to_string(value) + ")");
  }
}

void require_at_least(std::uint64_t value, std::uint64_t min,
                      const char* field) {
  if (value < min) {
    reject(std::string(field) + " must be at least " + std::to_string(min));
  }
}

void validate_adaptive(const AdaptiveConfig& a) {
  if (!(a.min_floor > 0.0 && a.min_floor <= a.initial_floor &&
        a.initial_floor <= a.max_floor)) {
    reject("adaptive floors must satisfy 0 < min_floor <= initial_floor "
           "<= max_floor");
  }
  if (!(a.h_low < a.h_high)) {
    reject("adaptive.h_low must be below adaptive.h_high");
  }
  if (!(a.tighten_factor > 1.0)) {
    reject("adaptive.tighten_factor must exceed 1");
  }
  if (!(a.relax_factor < 1.0)) {
    reject("adaptive.relax_factor must be below 1");
  }
}

}  // namespace

void validate_spec(const PolicySpec& spec) {
  require_positive_fraction(spec.obl_quota, "obl_quota");
  require_positive_fraction(spec.threshold, "threshold");
  require_at_least(spec.children, 1, "children");
  require_at_least(spec.controller.max_prefetches_per_period, 1,
                   "controller.max_prefetches_per_period");
  require_positive_fraction(spec.graph.min_probability,
                            "graph.min_probability");
  require_at_least(spec.graph.max_prefetches, 1, "graph.max_prefetches");
  require_at_least(spec.graph.max_successors, 1, "graph.max_successors");
  validate_adaptive(spec.adaptive);
  require_fraction(spec.markov.limits.min_probability,
                   "markov.limits.min_probability");
  if (spec.markov.model.max_contexts == 0 ||
      spec.markov.model.row_width == 0) {
    reject("markov.model bounds must be at least 1");
  }
  require_at_least(spec.markov.model.max_count, 2, "markov.model.max_count");
  require_fraction(spec.assoc.limits.min_probability,
                   "assoc.limits.min_probability");
  if (spec.assoc.miner.lookahead == 0 ||
      spec.assoc.miner.window <= spec.assoc.miner.lookahead) {
    reject("assoc.miner.window must exceed assoc.miner.lookahead (both at "
           "least 1)");
  }
  if (spec.assoc.miner.row_width == 0 || spec.assoc.miner.max_rows == 0) {
    reject("assoc.miner bounds must be at least 1");
  }
  require_at_least(spec.assoc.miner.age_threshold, 2,
                   "assoc.miner.age_threshold");
}

Composition compose(const PolicySpec& spec) {
  using P = PredictorKind;
  using S = SelectorKind;
  constexpr ReclaimRule kDemandFirst = ReclaimRule::kDemandFirst;
  constexpr ReclaimRule kPrefetchFirst = ReclaimRule::kPrefetchFirst;
  // Cost-benefit kinds reclaim by the controller's rule for prefetch
  // admissions and demand fetches alike (Section 6.2); the baselines
  // without a cost model let speculative blocks yield first.
  const ReclaimRule rule = spec.controller.reclaim;
  switch (spec.kind) {
    case PolicyKind::kNoPrefetch:
      // The prefetch cache stays empty, so this is plain LRU.
      return {.predictor = P::kNone, .demand_reclaim = kDemandFirst};
    case PolicyKind::kNextLimit:
      // OBL recycles its own quota; demand fetches keep the lookahead
      // blocks, as in an unpartitioned LRU cache.
      return {.predictor = P::kNone, .obl = true,
              .demand_reclaim = kDemandFirst};
    case PolicyKind::kTree:
      return {.predictor = P::kTree, .selector = S::kCostBenefit,
              .admission_reclaim = rule, .demand_reclaim = rule};
    case PolicyKind::kTreeNextLimit:
      return {.predictor = P::kTree, .obl = true,
              .selector = S::kCostBenefit, .admission_reclaim = rule,
              .demand_reclaim = rule};
    case PolicyKind::kTreeLvc:
      return {.predictor = P::kTree, .selector = S::kCostBenefit,
              .lvc = true, .admission_reclaim = rule,
              .demand_reclaim = rule};
    case PolicyKind::kTreeAdaptive:
      return {.predictor = P::kTree, .adaptive_floor = true,
              .selector = S::kCostBenefit, .admission_reclaim = rule,
              .demand_reclaim = rule};
    case PolicyKind::kTreeThreshold:
      PFP_REQUIRE(spec.threshold > 0.0 && spec.threshold <= 1.0);
      return {.predictor = P::kTree, .selector = S::kDirect,
              .min_probability = spec.threshold,
              .admission_reclaim = kPrefetchFirst,
              .demand_reclaim = kPrefetchFirst};
    case PolicyKind::kTreeChildren:
      PFP_REQUIRE(spec.children >= 1);
      return {.predictor = P::kTree, .selector = S::kDirect,
              .max_considered = spec.children,
              .admission_reclaim = kPrefetchFirst,
              .demand_reclaim = kPrefetchFirst};
    case PolicyKind::kProbGraph:
      return {.predictor = P::kGraph, .selector = S::kDirect,
              .min_probability = spec.graph.min_probability,
              .max_issued = spec.graph.max_prefetches,
              .admission_reclaim = kPrefetchFirst,
              .demand_reclaim = kPrefetchFirst};
    case PolicyKind::kPerfectSelector:
      // Protect the lookahead block (needed on the very next access):
      // demand fetches displace the demand LRU block whenever possible.
      return {.predictor = P::kTree, .selector = S::kPerfect,
              .admission_reclaim = kPrefetchFirst,
              .demand_reclaim = kDemandFirst};
    case PolicyKind::kMarkov:
      return {.predictor = P::kMarkov, .selector = S::kCostBenefit,
              .admission_reclaim = rule, .demand_reclaim = rule};
    case PolicyKind::kAssoc:
      // Eq. 1 prices a candidate against re-offering it one period later;
      // an association surfaces only while its source is the current
      // access, so it is priced as offered once.
      return {.predictor = P::kAssoc, .selector = S::kCostBenefit,
              .single_offer = true, .admission_reclaim = rule,
              .demand_reclaim = rule};
  }
  throw std::invalid_argument("unknown policy kind");
}

}  // namespace pfp::core::policy
