#include "util/histogram.hpp"

#include <gtest/gtest.h>

namespace pfp::util {
namespace {

TEST(Log2Histogram, BucketBoundaries) {
  EXPECT_EQ(Log2Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_hi(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_lo(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_hi(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_lo(2), 2u);
  EXPECT_EQ(Log2Histogram::bucket_hi(2), 3u);
  EXPECT_EQ(Log2Histogram::bucket_lo(3), 4u);
  EXPECT_EQ(Log2Histogram::bucket_hi(3), 7u);
}

TEST(Log2Histogram, ValuesLandInCoveringBuckets) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  h.add(1024);
  EXPECT_EQ(h.bucket_count(0), 1u);  // 0
  EXPECT_EQ(h.bucket_count(1), 1u);  // 1
  EXPECT_EQ(h.bucket_count(2), 2u);  // 2-3
  EXPECT_EQ(h.bucket_count(3), 1u);  // 4-7
  EXPECT_EQ(h.bucket_count(11), 1u); // 1024-2047
  EXPECT_EQ(h.total(), 6u);
}

TEST(Log2Histogram, ToStringListsNonEmptyBuckets) {
  Log2Histogram h;
  h.add(5, 3);
  const auto text = h.to_string();
  EXPECT_NE(text.find("4-7: 3"), std::string::npos);
}

TEST(Log2Histogram, ResetClears) {
  Log2Histogram h;
  h.add(9);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.buckets(), 0u);
}

TEST(Log2Histogram, SingleSampleQuantileBehaviour) {
  Log2Histogram h;
  h.add(37);  // [32, 63] -> bucket 6
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.bucket_count(6), 1u);
  EXPECT_EQ(h.buckets(), 7u);  // grows lazily to the covering bucket
}

TEST(Log2Histogram, MergeGrowsToWiderBucketSet) {
  Log2Histogram narrow;
  narrow.add(1);
  Log2Histogram wide;
  wide.add(1 << 20);
  narrow.merge(wide);
  EXPECT_EQ(narrow.total(), 2u);
  EXPECT_EQ(narrow.bucket_count(1), 1u);
  EXPECT_EQ(narrow.bucket_count(21), 1u);

  // And the mirror direction: merging a narrow set into a wide one must
  // leave the wide tail untouched.
  Log2Histogram wide2;
  wide2.add(1 << 20);
  Log2Histogram narrow2;
  narrow2.add(1);
  wide2.merge(narrow2);
  EXPECT_EQ(wide2.total(), 2u);
  EXPECT_EQ(wide2.bucket_count(21), 1u);
}

TEST(Log2Histogram, MergeWithEmptyIsIdentity) {
  Log2Histogram h;
  h.add(12, 4);
  Log2Histogram empty;
  h.merge(empty);
  empty.merge(h);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(empty.total(), 4u);
  EXPECT_EQ(empty.bucket_count(4), 4u);
}

TEST(Log2Histogram, HugeValuesLandInHighBuckets) {
  Log2Histogram h;
  h.add(std::uint64_t{1} << 62);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.bucket_count(63), 1u);
  EXPECT_EQ(Log2Histogram::bucket_lo(63), std::uint64_t{1} << 62);
}

}  // namespace
}  // namespace pfp::util
