// Bounded exponential backoff for spin-wait loops.
//
// The sharded engine waits in three places: its producer when a shard
// ring is full, its producer in flush() until a shard catches up, and
// each shard worker when its ring is empty.  All three first poll
// cheaply, because the peer is usually mid-operation and about to make
// the condition true:
//
//   spin()  cpu_relax() bursts, doubling 1, 2, 4, ... up to
//           2^kMaxSpinExponent pause instructions per call; returns
//           false, without spinning, once that budget is spent;
//   wait()  spin(), and once the budget is spent, yield the core to the
//           scheduler on every call instead of burning it.
//
// The spin budget is therefore bounded at 2^(kMaxSpinExponent+1)-1
// relaxes in total (regression-tested in tests/util/backoff_test.cpp).
// The ring-full wait uses wait(): its peer is busy by definition, so a
// yield hands it the core.  The idle waits use spin() and then park on a
// futex word (engine/sharded_engine.cpp), so an idle shard costs no CPU.
// Call reset() after the awaited condition holds so the next stall starts
// cheap again.
#pragma once

#include <cstdint>
#include <thread>

namespace pfp::util {

/// One pause/yield hint to the CPU: tells simultaneous-multithreading
/// hardware the core is in a spin loop so the sibling thread gets the
/// execution resources.  Compiles to `pause` on x86, `yield` on ARM, and
/// nothing elsewhere.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Per-wait-site escalation state.  Not thread-safe: one Backoff per
/// waiting loop, on the waiting thread's stack or in its single-threaded
/// state.
class Backoff {
 public:
  /// Last spin tier: 2^6 = 64 relaxes, so the total spin budget is
  /// 1+2+...+64 = 127 relax instructions (docs/perf.md, "Park and wake",
  /// has its measured length).
  static constexpr std::uint32_t kMaxSpinExponent = 6;

  /// Spins once at the current tier and escalates.  Returns false, and
  /// spins no more, once the budget is spent: the caller should block.
  bool spin() noexcept {
    if (round_ > kMaxSpinExponent) {
      return false;
    }
    const std::uint32_t spins = 1u << round_;
    for (std::uint32_t i = 0; i < spins; ++i) {
      cpu_relax();
    }
    ++round_;
    return true;
  }

  /// spin() while the budget lasts, then yield on every call.
  void wait() noexcept {
    if (!spin()) {
      std::this_thread::yield();
    }
  }

  /// Back to the cheap tier; call when the awaited condition held.
  void reset() noexcept { round_ = 0; }

 private:
  std::uint32_t round_ = 0;
};

}  // namespace pfp::util
