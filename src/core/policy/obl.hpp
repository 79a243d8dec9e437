// One-block lookahead: the add-on next-limit and tree-next-limit share.
//
// The paper's next-limit scheme "always prefetches the next disk block
// after a block is fetched on-demand", capping the cache fraction devoted
// to these speculative blocks at 10 % (Section 9).  As in classic OBL, a
// hit on a prefetched block re-arms the lookahead, so a sequential run
// costs one demand miss and then streams.  Quota overflow ejects the
// oldest OBL block; OBL entries are priced for the cost model with the
// online OBL hit-ratio estimate.
#pragma once

#include "core/policy/context.hpp"

namespace pfp::core::policy {

class SequentialLookahead {
 public:
  /// quota_fraction: max share of the total cache OBL blocks may occupy.
  explicit SequentialLookahead(double quota_fraction = 0.10);

  /// Arms the lookahead for `block` (call after a demand miss or a
  /// prefetch-cache hit): prefetches block + 1 unless already cached.
  /// Returns true if a prefetch was issued.
  bool maybe_prefetch_next(BlockId block, Context& ctx);

  [[nodiscard]] double quota_fraction() const noexcept { return quota_fraction_; }

 private:
  double quota_fraction_;
};

}  // namespace pfp::core::policy
