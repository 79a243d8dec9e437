#include "core/policy/prefetcher.hpp"

#include <algorithm>
#include <cstdio>
#include <ranges>
#include <span>

#include "core/policy/cost_benefit.hpp"
#include "core/policy/eviction.hpp"
#include "util/assert.hpp"
#include "util/phase.hpp"
#include "util/string_utils.hpp"

namespace pfp::core::policy {

std::string predictor_tag_name(std::uint32_t tag) {
  switch (tag) {
    case kPredictorNone:
      return "none";
    case kPredictorTree:
      return "tree";
    case kPredictorMarkov:
      return "markov";
    case kPredictorAssoc:
      return "assoc";
    default:
      break;
  }
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", tag);
  return buf;
}

void observe_tree(tree::PrefetchTree& tree, BlockId block,
                  AccessOutcome outcome, Context& ctx) {
  const tree::AccessInfo info = tree.access(block);

  // Table 2: the access was predictable if it matched a child of the
  // pre-access parse position.  Figure 14 additionally asks whether such
  // predictable blocks were already resident — `outcome` tells us, since
  // it reflects the cache state at access time.
  if (info.predictable) {
    ++ctx.metrics.predictable;
    if (outcome == AccessOutcome::kMiss) {
      ++ctx.metrics.predictable_uncached;
    }
  }
  // Table 3: successive visits through a node's last-visited child.
  if (info.had_lvc) {
    ++ctx.metrics.lvc_opportunities;
    if (info.followed_lvc) {
      ++ctx.metrics.lvc_followed;
    }
  }
  // Figure 16: at the new parse position, is the block the last-visited
  // child points at already cached?  This is exactly what a tree-lvc
  // prefetch attempt would discover (Section 9.6).
  const tree::NodeId lvc = tree.last_visited_child(tree.current());
  if (lvc != tree::kNoNode) {
    ++ctx.metrics.lvc_checks;
    if (ctx.cache.contains(tree.block(lvc))) {
      ++ctx.metrics.lvc_cached;
    }
  }

  ctx.metrics.tree_nodes = tree.node_count();
  ctx.metrics.tree_bytes = tree.approx_memory_bytes();
  util::phase_mark(ctx.phases, util::EnginePhase::kPredictorUpdate);
}

AdaptiveFloor::AdaptiveFloor(AdaptiveConfig config)
    : config_(config), floor_(config.initial_floor) {
  PFP_REQUIRE(config_.min_floor > 0.0);
  PFP_REQUIRE(config_.min_floor <= config_.initial_floor);
  PFP_REQUIRE(config_.initial_floor <= config_.max_floor);
  PFP_REQUIRE(config_.h_low < config_.h_high);
  PFP_REQUIRE(config_.tighten_factor > 1.0);
  PFP_REQUIRE(config_.relax_factor < 1.0);
}

void AdaptiveFloor::update(double h) {
  if (h < config_.h_low) {
    floor_ = std::min(floor_ * config_.tighten_factor, config_.max_floor);
  } else if (h > config_.h_high) {
    floor_ = std::max(floor_ * config_.relax_factor, config_.min_floor);
  }
}

Prefetcher::Prefetcher(const PolicySpec& spec)
    : spec_(spec), parts_(compose(spec)) {
  switch (parts_.predictor) {
    case PredictorKind::kNone:
      break;
    case PredictorKind::kTree:
      predictor_.emplace<tree::PrefetchTree>(spec.tree.tree);
      break;
    case PredictorKind::kMarkov:
      predictor_.emplace<markov::DeltaMarkov>(spec.markov.model);
      break;
    case PredictorKind::kAssoc:
      predictor_.emplace<assoc::AssociationMiner>(spec.assoc.miner);
      break;
    case PredictorKind::kGraph:
      predictor_.emplace<ProbGraph>(spec.graph);
      break;
  }
  if (parts_.obl) {
    obl_.emplace(spec.obl_quota);
  }
  if (parts_.adaptive_floor) {
    floor_.emplace(spec.adaptive);
  }
}

std::string Prefetcher::name() const {
  switch (spec_.kind) {
    case PolicyKind::kTreeThreshold:
      return "tree-threshold(" + util::format_double(spec_.threshold, 3) + ")";
    case PolicyKind::kTreeChildren:
      return "tree-children(" + std::to_string(spec_.children) + ")";
    default:
      return kind_name(spec_.kind);
  }
}

void Prefetcher::on_access(BlockId block, AccessOutcome outcome,
                           Context& ctx) {
  if (floor_) {
    // Feedback before this period's decisions: h is the EWMA fate of past
    // tree prefetches (hits vs ejected-unused).
    floor_->update(ctx.estimators.h());
  }
  observe(block, outcome, ctx);

  std::uint32_t issued = 0;
  // Re-arm on demand fetches and on first references to prefetched
  // blocks, so sequential runs stream after a single miss.
  if (obl_ &&
      (outcome == AccessOutcome::kMiss ||
       outcome == AccessOutcome::kPrefetchHit) &&
      obl_->maybe_prefetch_next(block, ctx)) {
    ++issued;
  }
  switch (parts_.selector) {
    case SelectorKind::kNone:
      break;
    case SelectorKind::kCostBenefit:
      issued += select_cost_benefit(block, ctx);
      break;
    case SelectorKind::kDirect:
      issued += select_direct(block, ctx);
      break;
    case SelectorKind::kPerfect:
      issued += select_perfect(ctx);
      break;
  }
  if (parts_.lvc) {
    issued += prefetch_last_visited_child(ctx);
  }
  ctx.estimators.end_period(issued);
}

void Prefetcher::observe(BlockId block, AccessOutcome outcome,
                         Context& ctx) {
  if (auto* lz = std::get_if<tree::PrefetchTree>(&predictor_)) {
    observe_tree(*lz, block, outcome, ctx);
  } else if (auto* model = std::get_if<markov::DeltaMarkov>(&predictor_)) {
    model->observe(block);
    // The tree_* counters double as generic predictor-size gauges.
    ctx.metrics.tree_nodes = model->row_count();
    ctx.metrics.tree_bytes = model->actual_memory_bytes();
    util::phase_mark(ctx.phases, util::EnginePhase::kPredictorUpdate);
  } else if (auto* miner = std::get_if<assoc::AssociationMiner>(&predictor_)) {
    miner->observe(block);
    ctx.metrics.tree_nodes = miner->row_count();
    ctx.metrics.tree_bytes = miner->actual_memory_bytes();
    util::phase_mark(ctx.phases, util::EnginePhase::kPredictorUpdate);
  } else if (auto* graph = std::get_if<ProbGraph>(&predictor_)) {
    graph->observe(block);
    util::phase_mark(ctx.phases, util::EnginePhase::kPredictorUpdate);
  }
}

std::uint32_t Prefetcher::select_cost_benefit(BlockId block, Context& ctx) {
  CostBenefitKnobs knobs;
  knobs.max_prefetches_per_period = spec_.controller.max_prefetches_per_period;
  knobs.refetch = spec_.controller.refetch;
  knobs.single_offer = parts_.single_offer;
  if (floor_) {
    knobs.probability_floor = floor_->value();
  }
  const auto reclaim = [rule = parts_.admission_reclaim](Context& c) {
    reclaim_by_rule(rule, c);
  };

  if (const auto* lz = std::get_if<tree::PrefetchTree>(&predictor_)) {
    const auto candidates =
        enumerator_.enumerate(*lz, lz->current(), spec_.tree.limits);
    util::phase_mark(ctx.phases, util::EnginePhase::kEnumeration);
    knobs.max_depth = spec_.tree.limits.max_depth;
    return run_cost_benefit_loop(candidates, knobs, ctx, order_, dtpf_,
                                 reclaim);
  }
  candidates_.clear();
  if (const auto* model = std::get_if<markov::DeltaMarkov>(&predictor_)) {
    model->predict_into(spec_.markov.limits, candidates_);
    knobs.max_depth = spec_.markov.limits.max_depth;
  } else if (const auto* miner =
                 std::get_if<assoc::AssociationMiner>(&predictor_)) {
    // An association surfaces only while its source is the current access.
    miner->predict_into(block, spec_.assoc.limits, candidates_);
    knobs.max_depth = spec_.assoc.limits.max_depth;
  }
  util::phase_mark(ctx.phases, util::EnginePhase::kEnumeration);
  return run_cost_benefit_loop(
      std::span<const costben::PredictedBlock>(candidates_), knobs, ctx,
      order_, dtpf_, reclaim);
}

namespace {

struct Successor {
  BlockId block;
  double probability;
};

/// The direct selector's walk over one-step successors, most probable
/// first: no cost model, just the composition's stopping rules.
template <typename Successors>
std::uint32_t admit_successors(Successors&& successors,
                               const Composition& parts, Context& ctx) {
  std::uint32_t considered = 0;
  std::uint32_t issued = 0;
  for (const Successor next : successors) {
    if (considered >= parts.max_considered || issued >= parts.max_issued ||
        next.probability < parts.min_probability) {
      break;  // most probable first: the rest fail too
    }
    ++considered;
    ++ctx.metrics.candidates_chosen;
    if (ctx.cache.contains(next.block)) {
      ++ctx.metrics.candidates_already_cached;
      continue;
    }
    if (ctx.cache.free_buffers() == 0) {
      reclaim_by_rule(parts.admission_reclaim, ctx);
    }
    admit_prefetch(ctx, next.block, next.probability, /*depth=*/1, /*x=*/0,
                   /*obl=*/false);
    ++issued;
  }
  return issued;
}

}  // namespace

std::uint32_t Prefetcher::select_direct(BlockId block, Context& ctx) {
  if (const auto* lz = std::get_if<tree::PrefetchTree>(&predictor_)) {
    const tree::NodeId current = lz->current();
    return admit_successors(
        lz->children(current) |
            std::views::transform([&](tree::NodeId child) {
              return Successor{lz->block(child),
                               lz->edge_probability(current, child)};
            }),
        parts_, ctx);
  }
  const ProbGraph::Node* node = std::get<ProbGraph>(predictor_).find(block);
  if (node == nullptr) {
    return 0;
  }
  const double total = static_cast<double>(node->total);
  return admit_successors(
      node->edges | std::views::transform([total](const ProbGraph::Edge& e) {
        return Successor{e.successor, static_cast<double>(e.count) / total};
      }),
      parts_, ctx);
}

std::uint32_t Prefetcher::select_perfect(Context& ctx) {
  // Knows the next reference and prefetches it if and only if the tree
  // predicts it: perfect selection with unchanged prediction.
  if (ctx.upcoming.empty()) {
    return 0;
  }
  const auto& lz = std::get<tree::PrefetchTree>(predictor_);
  const BlockId next = ctx.upcoming.front().block;
  const tree::NodeId current = lz.current();
  const tree::NodeId child = lz.find_child(current, next);
  ++ctx.metrics.candidates_chosen;
  if (child == tree::kNoNode) {
    return 0;
  }
  if (ctx.cache.contains(next)) {
    ++ctx.metrics.candidates_already_cached;
    return 0;
  }
  if (ctx.cache.free_buffers() == 0) {
    // The prefetched block is used on the very next access, so any
    // resident buffer is worth less; displace speculative leftovers
    // before touching the demand cache.
    reclaim_by_rule(parts_.admission_reclaim, ctx);
  }
  admit_prefetch(ctx, next, lz.edge_probability(current, child),
                 /*depth=*/1, /*x=*/0, /*obl=*/false);
  return 1;
}

std::uint32_t Prefetcher::prefetch_last_visited_child(Context& ctx) {
  // "...prefetches the last visited child of a node in addition to
  // prefetching blocks determined by cost-benefit analysis" (Sec 9.6).
  const auto& lz = std::get<tree::PrefetchTree>(predictor_);
  const tree::NodeId current = lz.current();
  const tree::NodeId lvc = lz.last_visited_child(current);
  if (lvc == tree::kNoNode) {
    return 0;
  }
  const BlockId target = lz.block(lvc);
  if (ctx.cache.contains(target)) {
    return 0;
  }
  if (ctx.cache.free_buffers() == 0) {
    evict_cheapest(ctx);
  }
  // A depth-1 candidate re-prefetches at x = 0 under every refetch rule.
  admit_prefetch(ctx, target, lz.edge_probability(current, lvc),
                 /*depth=*/1, /*x=*/0, /*obl=*/false);
  return 1;
}

std::uint32_t Prefetcher::predictor_state_tag() const {
  if (std::holds_alternative<tree::PrefetchTree>(predictor_)) {
    return kPredictorTree;
  }
  if (std::holds_alternative<markov::DeltaMarkov>(predictor_)) {
    return kPredictorMarkov;
  }
  if (std::holds_alternative<assoc::AssociationMiner>(predictor_)) {
    return kPredictorAssoc;
  }
  return kPredictorNone;
}

void Prefetcher::save_predictor_state(std::ostream& out) const {
  if (const auto* lz = std::get_if<tree::PrefetchTree>(&predictor_)) {
    lz->serialize(out);
  } else if (const auto* model = std::get_if<markov::DeltaMarkov>(&predictor_)) {
    model->serialize(out);
  } else if (const auto* miner =
                 std::get_if<assoc::AssociationMiner>(&predictor_)) {
    miner->serialize(out);
  }
}

bool Prefetcher::load_predictor_state(std::istream& in) {
  // Growth bounds come from the live configuration, not the stream (it
  // stores structure only).  Move-assignment keeps the incoming tree's
  // uid, so epoch-keyed enumerator caches can never confuse the restored
  // structure with the one it replaces (see PrefetchTree's uid semantics).
  if (auto* lz = std::get_if<tree::PrefetchTree>(&predictor_)) {
    *lz = tree::PrefetchTree::deserialize(in, lz->config());
  } else if (auto* model = std::get_if<markov::DeltaMarkov>(&predictor_)) {
    *model = markov::DeltaMarkov::deserialize(in, model->config());
  } else if (auto* miner = std::get_if<assoc::AssociationMiner>(&predictor_)) {
    *miner = assoc::AssociationMiner::deserialize(in, miner->config());
  } else {
    return false;
  }
  return true;
}

void Prefetcher::audit() const {
  if (const auto* lz = std::get_if<tree::PrefetchTree>(&predictor_)) {
    enumerator_.audit(*lz);
  }
}

}  // namespace pfp::core::policy
