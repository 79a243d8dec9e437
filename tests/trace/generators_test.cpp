#include <gtest/gtest.h>

#include <set>

#include "trace/characterize.hpp"
#include "trace/gen_cad.hpp"
#include "trace/gen_fileserver.hpp"
#include "trace/gen_sequential.hpp"
#include "trace/gen_timeshare.hpp"

namespace pfp::trace {
namespace {

// ---- determinism: same config => identical trace ------------------------

template <typename Gen>
void expect_deterministic(typename Gen::Config config) {
  config.references = 5'000;
  const Trace a = Gen(config).generate();
  const Trace b = Gen(config).generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "diverged at " << i;
  }
}

TEST(Generators, SitarIsDeterministic) {
  expect_deterministic<SitarGenerator>({});
}
TEST(Generators, CadIsDeterministic) {
  expect_deterministic<CadGenerator>({});
}
TEST(Generators, TimeshareIsDeterministic) {
  expect_deterministic<TimeshareGenerator>({});
}
TEST(Generators, FileServerIsDeterministic) {
  expect_deterministic<FileServerGenerator>({});
}

// ---- streaming sources: generate() is a prefix of Source ---------------

// make_workload streams cello and snake through the L1 filter and stops
// once enough records survive; that matches generate() at any length only
// if a longer run extends a shorter one record for record.
template <typename Gen>
void expect_prefix_of_source(typename Gen::Config config) {
  config.references = 3'000;
  const Trace generated = Gen(config).generate();
  typename Gen::Source source(config);
  ASSERT_EQ(generated.size(), 3'000u);
  for (std::size_t i = 0; i < generated.size(); ++i) {
    ASSERT_EQ(generated[i], source.next()) << "diverged at " << i;
  }
  config.references = 1'000;
  const Trace shorter = Gen(config).generate();
  for (std::size_t i = 0; i < shorter.size(); ++i) {
    ASSERT_EQ(shorter[i], generated[i]) << "diverged at " << i;
  }
}

TEST(Generators, TimeshareGenerateIsSourcePrefix) {
  expect_prefix_of_source<TimeshareGenerator>({});
}
TEST(Generators, FileServerGenerateIsSourcePrefix) {
  expect_prefix_of_source<FileServerGenerator>({});
}

// ---- seeds matter --------------------------------------------------------

TEST(Generators, DifferentSeedsProduceDifferentTraces) {
  CadGenerator::Config a;
  a.references = 2'000;
  CadGenerator::Config b = a;
  b.seed += 1;
  const Trace ta = CadGenerator(a).generate();
  const Trace tb = CadGenerator(b).generate();
  bool differs = false;
  for (std::size_t i = 0; i < ta.size() && !differs; ++i) {
    differs = !(ta[i] == tb[i]);
  }
  EXPECT_TRUE(differs);
}

// ---- exact lengths -------------------------------------------------------

TEST(Generators, ProduceExactlyRequestedReferences) {
  SitarGenerator::Config sc;
  sc.references = 12'345;
  EXPECT_EQ(SitarGenerator(sc).generate().size(), 12'345u);
  CadGenerator::Config cc;
  cc.references = 999;
  EXPECT_EQ(CadGenerator(cc).generate().size(), 999u);
}

// ---- structural signatures (what the paper's results hinge on) -----------

TEST(Generators, SitarIsHighlySequential) {
  SitarGenerator::Config config;
  config.references = 50'000;
  const auto profile = characterize(SitarGenerator(config).generate());
  EXPECT_GT(profile.sequential_fraction, 0.6)
      << "sitar must reward one-block lookahead";
  EXPECT_GT(profile.mean_run_length, 3.0);
}

TEST(Generators, CadHasNoSequentialAdjacency) {
  CadGenerator::Config config;
  config.references = 50'000;
  const auto profile = characterize(CadGenerator(config).generate());
  EXPECT_LT(profile.sequential_fraction, 0.01)
      << "CAD object ids must defeat one-block lookahead";
}

TEST(Generators, CadHasHeavyRepetition) {
  CadGenerator::Config config;
  config.references = 50'000;
  const auto profile = characterize(CadGenerator(config).generate());
  EXPECT_GT(profile.reuse_fraction, 0.5)
      << "CAD sessions re-traverse the same structures";
}

TEST(Generators, TimeshareMixesSequentialAndRandom) {
  TimeshareGenerator::Config config;
  config.references = 50'000;
  const auto profile = characterize(TimeshareGenerator(config).generate());
  EXPECT_GT(profile.sequential_fraction, 0.1);
  EXPECT_LT(profile.sequential_fraction, 0.7);
}

TEST(Generators, FileServerIsSequentialWithReuse) {
  FileServerGenerator::Config config;
  config.references = 50'000;
  const auto profile = characterize(FileServerGenerator(config).generate());
  EXPECT_GT(profile.sequential_fraction, 0.4);
  EXPECT_GT(profile.reuse_fraction, 0.3);
}

TEST(Generators, CadStreamTagsMatchSequences) {
  CadGenerator::Config config;
  config.references = 5'000;
  const Trace t = CadGenerator(config).generate();
  std::set<StreamId> streams;
  for (const auto& r : t) {
    streams.insert(r.stream);
  }
  EXPECT_GT(streams.size(), 1u);
  EXPECT_LE(streams.size(), config.sequences);
}

TEST(Generators, SitarFilesAreReadFrontToBack) {
  // Within one stream, block numbers inside a file ascend by one; verify
  // the dominant pattern: for stream 0, strictly ascending runs.
  SitarGenerator::Config config;
  config.references = 20'000;
  config.streams = 1;
  config.metadata_prob = 0.0;
  const Trace t = SitarGenerator(config).generate();
  std::uint64_t ascending = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    ++total;
    if (t[i].block == t[i - 1].block + 1) {
      ++ascending;
    }
  }
  EXPECT_GT(static_cast<double>(ascending) / static_cast<double>(total),
            0.7);
}

}  // namespace
}  // namespace pfp::trace
