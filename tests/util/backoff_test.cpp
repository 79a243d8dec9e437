#include "util/backoff.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace pfp::util {
namespace {

// The escalation contract the sharded engine relies on: a waiter spins
// only a bounded number of rounds.  After that spin() refuses (the idle
// waits park instead) and EVERY wait() cedes the core via yield, so no
// wait can burn a core unbounded.
TEST(Backoff, SpinsBoundedRoundsThenAlwaysYields) {
  Backoff backoff;
  // Spin tier: exponents 0..kMaxSpinExponent spin.
  for (std::uint32_t i = 0; i <= Backoff::kMaxSpinExponent; ++i) {
    EXPECT_TRUE(backoff.spin()) << "spin round " << i << " refused early";
  }
  // Budget spent: from here on spin() refuses and wait() only yields,
  // which leaves the budget spent.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(backoff.spin()) << "spin " << i << " after the budget";
    backoff.wait();
  }
  EXPECT_FALSE(backoff.spin());
}

TEST(Backoff, ResetReturnsToCheapTier) {
  Backoff backoff;
  while (backoff.spin()) {
  }
  backoff.reset();
  for (std::uint32_t i = 0; i <= Backoff::kMaxSpinExponent; ++i) {
    EXPECT_TRUE(backoff.spin()) << "post-reset round " << i;
  }
  EXPECT_FALSE(backoff.spin());
}

TEST(Backoff, CpuRelaxIsCallable) {
  // Smoke: the pause/yield intrinsic must compile and execute on this
  // target (the #if ladder in backoff.hpp covers x86/ARM/other).
  cpu_relax();
}

}  // namespace
}  // namespace pfp::util
