#include "trace/workloads.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "trace/characterize.hpp"

namespace pfp::trace {
namespace {

TEST(Workloads, NamesRoundTrip) {
  for (const Workload w : all_workloads()) {
    EXPECT_EQ(workload_from_name(workload_name(w)), w);
  }
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW(workload_from_name("bogus"), std::invalid_argument);
}

TEST(Workloads, FourWorkloadsInPaperOrder) {
  const auto& all = all_workloads();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(workload_name(all[0]), "cello");
  EXPECT_EQ(workload_name(all[1]), "snake");
  EXPECT_EQ(workload_name(all[2]), "cad");
  EXPECT_EQ(workload_name(all[3]), "sitar");
}

TEST(Workloads, L1SizesMatchTable1) {
  // 30 MB and 5 MB at 8 KiB blocks (Table 1).
  EXPECT_EQ(workload_l1_blocks(Workload::kCello), 3840u);
  EXPECT_EQ(workload_l1_blocks(Workload::kSnake), 640u);
  EXPECT_EQ(workload_l1_blocks(Workload::kCad), 0u);
  EXPECT_EQ(workload_l1_blocks(Workload::kSitar), 0u);
}

TEST(Workloads, ProducesRequestedLength) {
  for (const Workload w : all_workloads()) {
    const Trace t = make_workload(w, 10'000);
    EXPECT_EQ(t.size(), 10'000u) << workload_name(w);
    EXPECT_EQ(t.name(), workload_name(w));
  }
}

TEST(Workloads, DeterministicAcrossCalls) {
  const Trace a = make_workload(Workload::kSnake, 5'000);
  const Trace b = make_workload(Workload::kSnake, 5'000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]);
  }
}

TEST(Workloads, SeedPerturbsTrace) {
  const Trace a = make_workload(Workload::kCad, 5'000, 0);
  const Trace b = make_workload(Workload::kCad, 5'000, 1);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = !(a[i] == b[i]);
  }
  EXPECT_TRUE(differs);
}

// Table 1's key property: the disk-level traces contain no references
// that would have hit the original first-level cache.  Equivalent check:
// replaying the filtered trace through an identical L1 never hits on
// short distances... directly verify the filter did run by comparing
// with the unfiltered generators' reuse at short range.
TEST(Workloads, FilteredTracesHaveReducedShortRangeReuse) {
  const Trace cello = make_workload(Workload::kCello, 30'000);
  const auto profile = characterize(cello);
  // Raw timeshare reuse is dominated by hot working sets that the 30 MB
  // L1 absorbs; the residual reuse fraction must be much lower than the
  // raw generator's (> 0.5 at these lengths).
  EXPECT_LT(profile.reuse_fraction, 0.45);
}

TEST(Workloads, CadIsUsedUnfiltered) {
  // CAD has no L1 filter: short-range repetition survives.
  const Trace cad = make_workload(Workload::kCad, 30'000);
  const auto profile = characterize(cad);
  EXPECT_GT(profile.reuse_fraction, 0.5);
}

// FNV-1a over the name, the size and every record's block and stream.
std::uint64_t workload_hash(const Trace& trace) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h = (h ^ ((value >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  };
  for (const char c : trace.name()) {
    mix(static_cast<unsigned char>(c), 1);
  }
  mix(trace.size(), 8);
  for (const TraceRecord& r : trace) {
    mix(r.block, 8);
    mix(r.stream, 4);
  }
  return h;
}

struct GoldenCase {
  Workload workload;
  std::uint64_t references;
  std::uint64_t seed;
  std::uint64_t hash;
};

// Hashes of make_workload output, recorded before the cello and snake
// generators became streaming sources; any change to a generator, the L1
// filter or the workload wiring shows up here.
const GoldenCase kGolden[] = {
    {Workload::kCello, 1, 0, 0x3b34819ad862428eULL},
    {Workload::kCello, 1, 1, 0x3fbb8cf7d456c8a0ULL},
    {Workload::kCello, 1, 977, 0x46b3e6eec331c6f5ULL},
    {Workload::kCello, 7, 0, 0xdbad45c40e1c800fULL},
    {Workload::kCello, 7, 1, 0x86d179dbe540f170ULL},
    {Workload::kCello, 7, 977, 0x687ffa77f51d359bULL},
    {Workload::kCello, 1'000, 0, 0x8366b2aa44d5d19fULL},
    {Workload::kCello, 1'000, 1, 0x6014104af40c8871ULL},
    {Workload::kCello, 1'000, 977, 0x721959bbbe69b489ULL},
    {Workload::kCello, 25'000, 0, 0x4efc07547c4f83f4ULL},
    {Workload::kCello, 25'000, 1, 0xb3ef25b848a7b839ULL},
    {Workload::kCello, 25'000, 977, 0x81c533e1222ac300ULL},
    {Workload::kCello, 100'000, 0, 0xbac8f7c83a4ac1feULL},
    {Workload::kCello, 100'000, 1, 0x272a65ef97eb104cULL},
    {Workload::kCello, 100'000, 977, 0x668d9b010592c492ULL},
    {Workload::kSnake, 1, 0, 0x20bbceaf21bf76e9ULL},
    {Workload::kSnake, 1, 1, 0x43c4e530488b7712ULL},
    {Workload::kSnake, 1, 977, 0x2b1a768d1d30002dULL},
    {Workload::kSnake, 7, 0, 0x70b50efcb5ff2d37ULL},
    {Workload::kSnake, 7, 1, 0x7a68b96502f05d6aULL},
    {Workload::kSnake, 7, 977, 0x86ead1cff28b3700ULL},
    {Workload::kSnake, 1'000, 0, 0xc5d121dfb50d9011ULL},
    {Workload::kSnake, 1'000, 1, 0xceeb1ba5cd682b0dULL},
    {Workload::kSnake, 1'000, 977, 0x9383a0c749490a93ULL},
    {Workload::kSnake, 25'000, 0, 0x7792221a2ad993dbULL},
    {Workload::kSnake, 25'000, 1, 0x074d403eb632332bULL},
    {Workload::kSnake, 25'000, 977, 0x3b33d69dce345afaULL},
    {Workload::kSnake, 100'000, 0, 0x02160b71fdd9e161ULL},
    {Workload::kSnake, 100'000, 1, 0xf5c6630f686b0346ULL},
    {Workload::kSnake, 100'000, 977, 0x43c2597e6b90202aULL},
    {Workload::kCad, 1, 0, 0x4862bc29a1dca5faULL},
    {Workload::kCad, 1, 1, 0xda6b8646d8b23dc3ULL},
    {Workload::kCad, 1, 977, 0x8feff557caa53d61ULL},
    {Workload::kCad, 7, 0, 0xe64452fe97064c02ULL},
    {Workload::kCad, 7, 1, 0x120d06c79e0346f0ULL},
    {Workload::kCad, 7, 977, 0xb38cb31029c7f9f4ULL},
    {Workload::kCad, 1'000, 0, 0xd3237e9c238ef804ULL},
    {Workload::kCad, 1'000, 1, 0x51335bfa216f8a29ULL},
    {Workload::kCad, 1'000, 977, 0x1bff8d07f6e5c352ULL},
    {Workload::kCad, 25'000, 0, 0x98f33c080989af36ULL},
    {Workload::kCad, 25'000, 1, 0x0697ee8a3dd30f0aULL},
    {Workload::kCad, 25'000, 977, 0x1f20c3c68d0e4789ULL},
    {Workload::kCad, 100'000, 0, 0x48d639721c05ffc2ULL},
    {Workload::kCad, 100'000, 1, 0x40f7f0c1482354d9ULL},
    {Workload::kCad, 100'000, 977, 0xc85b6f24189ae869ULL},
    {Workload::kSitar, 1, 0, 0xfc926bbe77defa2cULL},
    {Workload::kSitar, 1, 1, 0x43972b0957014d24ULL},
    {Workload::kSitar, 1, 977, 0x25d884e65dcd51dcULL},
    {Workload::kSitar, 7, 0, 0x5383a8ed152ddc37ULL},
    {Workload::kSitar, 7, 1, 0xa6dcb5ab0ef9e8f8ULL},
    {Workload::kSitar, 7, 977, 0xa1a5a09cebd43c91ULL},
    {Workload::kSitar, 1'000, 0, 0xae446b67e84cdd85ULL},
    {Workload::kSitar, 1'000, 1, 0x6dd2c56a9c8a3557ULL},
    {Workload::kSitar, 1'000, 977, 0x5abb19f3398c5922ULL},
    {Workload::kSitar, 25'000, 0, 0x14f95e852cfab982ULL},
    {Workload::kSitar, 25'000, 1, 0xecb162cf6a61011bULL},
    {Workload::kSitar, 25'000, 977, 0x25153c4569daa576ULL},
    {Workload::kSitar, 100'000, 0, 0x11f22ae90f7becc1ULL},
    {Workload::kSitar, 100'000, 1, 0xdd4b835c39d09867ULL},
    {Workload::kSitar, 100'000, 977, 0x32311d32db94942aULL},
};

TEST(Workloads, GoldenHashesPinConstruction) {
  for (const GoldenCase& c : kGolden) {
    const Trace trace = make_workload(c.workload, c.references, c.seed);
    EXPECT_EQ(workload_hash(trace), c.hash)
        << workload_name(c.workload) << " references=" << c.references
        << " seed=" << c.seed;
  }
}

}  // namespace
}  // namespace pfp::trace
