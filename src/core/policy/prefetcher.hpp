// The prefetching policy.
//
// The simulator drives each trace reference through the buffer cache and
// then hands the observed outcome to the policy, which may issue
// prefetches and is responsible for choosing replacement victims — both
// when it wants room for a prefetch and when the simulator needs room for
// a demand fetch (Figure 2's reclaim arrows are policy decisions, not
// cache mechanics).
//
// Section 9's schemes are one design with parts swapped, so there is one
// Prefetcher class composed of:
//   * a predictor that learns from every reference — the LZ tree
//     (Section 2), a delta-Markov chain, an association miner, a
//     first-order probability graph, or none;
//   * a selector that picks among its candidates — the Eq. 1-14
//     cost-benefit controller, a direct rule without a cost model
//     (threshold / top-k, Section 9.7), the perfect oracle (Section 9.5),
//     or none;
//   * optional add-ons: one-block lookahead, the last-visited-child
//     prefetch (Section 9.6) and tree-adaptive's probability floor.
// compose() in factory.cpp is the table of which parts each PolicyKind
// uses.
//
// Predictor state is persisted as an opaque, versioned, self-describing
// byte stream (save/load) plus a family tag, so the engine's snapshot
// layer sees every predictor family through one surface.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/costben/candidate.hpp"
#include "core/policy/context.hpp"
#include "core/policy/factory.hpp"
#include "core/policy/obl.hpp"

namespace pfp::core::policy {

enum class AccessOutcome {
  kDemandHit,    ///< found in the demand cache
  kPrefetchHit,  ///< found in the prefetch cache (migrated on reference)
  kMiss,         ///< demand fetch required
};

/// Predictor-family tags ("FourCC" codes).  A policy with durable
/// predictor state reports exactly one of these; snapshot streams record
/// the tag so a blob can never be restored into the wrong family.
constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

/// Stateless policies (no durable predictor).
constexpr std::uint32_t kPredictorNone = 0;
/// The LZ prefetch tree family (core/tree).
constexpr std::uint32_t kPredictorTree = fourcc('L', 'Z', 'T', 'R');
/// Pangloss-style delta-Markov chain (core/markov).
constexpr std::uint32_t kPredictorMarkov = fourcc('M', 'R', 'K', 'V');
/// MITHRIL-style sporadic-association miner (core/assoc).
constexpr std::uint32_t kPredictorAssoc = fourcc('A', 'S', 'S', 'C');

/// Human-readable name for a predictor tag ("tree", "markov", "assoc",
/// "none", or "0x...." for unknown tags) — for error messages.
std::string predictor_tag_name(std::uint32_t tag);

/// Feeds one reference through the LZ parse and records what the paper
/// reports about tree behaviour whatever the selector: prediction
/// accuracy (Table 2), predictable-but-uncached (Figure 14),
/// last-visited-child revisit and residency (Table 3 / Figure 16) and
/// tree size (Section 9.3).  Closes the predictor-update phase.
void observe_tree(tree::PrefetchTree& tree, BlockId block,
                  AccessOutcome outcome, Context& ctx);

/// tree-adaptive's probability floor (AdaptiveConfig): tightens while
/// the tree-prefetch hit ratio h is poor, relaxes while it is high.
class AdaptiveFloor {
 public:
  explicit AdaptiveFloor(AdaptiveConfig config);

  /// Feedback step, once per access period before its decisions.
  void update(double h);

  [[nodiscard]] double value() const noexcept { return floor_; }

 private:
  AdaptiveConfig config_;
  double floor_;
};

class Prefetcher final {
 public:
  /// Builds the composition compose(spec) names.
  explicit Prefetcher(const PolicySpec& spec);

  /// Stable identifier ("tree", "next-limit", "tree-threshold(0.125)").
  [[nodiscard]] std::string name() const;

  /// Called once per trace reference, after the cache state reflects the
  /// access (hit promoted / prefetch migrated / missed block admitted).
  /// This is where the predictor learns and prefetches are issued.
  void on_access(BlockId block, AccessOutcome outcome, Context& ctx);

  /// Called on a demand miss with a full cache: evicts exactly one buffer
  /// (from either cache) so the fetched block can be admitted.
  void reclaim_for_demand(Context& ctx) {
    reclaim_by_rule(parts_.demand_reclaim, ctx);
  }

  // --- predictor state -----------------------------------------------

  /// Which predictor family this policy persists (kPredictorNone when it
  /// keeps no durable predictor state).  Engine snapshots record the tag
  /// next to the opaque blob.
  [[nodiscard]] std::uint32_t predictor_state_tag() const;

  /// Serializes the predictor state as an opaque, versioned stream (each
  /// family writes its own magic + version header); writes nothing when
  /// predictor_state_tag() == kPredictorNone.
  void save_predictor_state(std::ostream& out) const;

  /// Restores state written by save_predictor_state() of the same family.
  /// Throws std::runtime_error on malformed input; returns false when the
  /// policy keeps no predictor state to restore into.
  bool load_predictor_state(std::istream& in);

  /// SIM_AUDIT >= 1: every reusable cached candidate list must reproduce
  /// a fresh enumeration bit-for-bit (no-op otherwise).
  void audit() const;

 private:
  void observe(BlockId block, AccessOutcome outcome, Context& ctx);
  std::uint32_t select_cost_benefit(BlockId block, Context& ctx);
  std::uint32_t select_direct(BlockId block, Context& ctx);
  std::uint32_t select_perfect(Context& ctx);
  std::uint32_t prefetch_last_visited_child(Context& ctx);

  PolicySpec spec_;
  Composition parts_;
  std::variant<std::monostate, tree::PrefetchTree, markov::DeltaMarkov,
               assoc::AssociationMiner, ProbGraph>
      predictor_;
  std::optional<SequentialLookahead> obl_;
  std::optional<AdaptiveFloor> floor_;
  /// Reused across access periods so the per-access hot path performs no
  /// heap allocation once the buffers reach steady-state size.
  tree::CandidateEnumerator enumerator_;
  std::vector<costben::PredictedBlock> candidates_;
  std::vector<std::pair<double, std::size_t>> order_;
  std::vector<double> dtpf_;  ///< per-period Eq. 2 table (BenefitTable)
};

}  // namespace pfp::core::policy
