#include "common/stats.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace mifo {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  Rng rng(5);
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10, 10);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeMatchesSinglePassOnRandomSplits) {
  // Split the same stream at random points; merged halves must agree with
  // the single-pass accumulation regardless of where the cut lands.
  Rng rng(11);
  std::vector<double> xs;
  xs.reserve(2000);
  for (int i = 0; i < 2000; ++i) xs.push_back(rng.uniform(-1e3, 1e3));
  RunningStats all;
  for (const double x : xs) all.add(x);
  for (int trial = 0; trial < 10; ++trial) {
    const auto cut = static_cast<std::size_t>(rng.bounded(xs.size() + 1));
    RunningStats a;
    RunningStats b;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      (i < cut ? a : b).add(xs[i]);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-8);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
    EXPECT_NEAR(a.sum(), all.sum(), 1e-6);
  }
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Cdf, AtAndFractionAtLeast) {
  Cdf cdf;
  for (double x : {1.0, 2.0, 3.0, 4.0}) cdf.add(x);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(3.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(4.1), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(0.0), 1.0);
}

TEST(Cdf, Quantiles) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(i);
  EXPECT_NEAR(cdf.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(cdf.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(cdf.quantile(0.5), 50.0, 1.0);
}

TEST(Cdf, EmptyIsSafeExceptQuantile) {
  const Cdf cdf;
  EXPECT_DOUBLE_EQ(cdf.at(42.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(42.0), 0.0);
  // quantile() contracts on non-empty input; no call here.
}

TEST(Cdf, SingleElementQuantiles) {
  Cdf cdf;
  cdf.add(7.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 7.0);
  EXPECT_DOUBLE_EQ(cdf.at(6.9), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(7.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(7.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(7.1), 0.0);
}

TEST(Cdf, FractionAtLeastBoundaryIsInclusive) {
  Cdf cdf;
  for (double x : {1.0, 2.0, 2.0, 3.0}) cdf.add(x);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(2.0), 0.75);  // both 2.0s count
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(1.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(3.0), 0.25);
}

TEST(Cdf, TableMonotone) {
  Cdf cdf;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) cdf.add(rng.uniform(0, 1000));
  const auto rows = cdf.table(0, 1000, 11);
  ASSERT_EQ(rows.size(), 11u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].second, rows[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(rows.back().second, 100.0);
}

TEST(Cdf, AddAllMatchesIndividualAdds) {
  Cdf a;
  Cdf b;
  std::vector<double> xs{5, 1, 3, 2, 4};
  for (double x : xs) a.add(x);
  b.add_all(xs);
  EXPECT_DOUBLE_EQ(a.at(2.5), b.at(2.5));
  EXPECT_DOUBLE_EQ(a.quantile(0.5), b.quantile(0.5));
}

TEST(Histogram, BinningAndClamping) {
  Histogram h({0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0});
  h.add(0.5);   // bin 0
  h.add(9.5);   // bin 9
  h.add(-5.0);  // clamps to bin 0
  h.add(50.0);  // clamps to bin 9
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_low(1), 1.0);
}

TEST(Histogram, MergeSumsBins) {
  Histogram a({0.0, 2.0, 4.0, 6.0, 8.0, 10.0});
  Histogram b({0.0, 2.0, 4.0, 6.0, 8.0, 10.0});
  a.add(1.0);
  a.add(9.0);
  b.add(1.5);
  b.add(-3.0);  // clamps into bin 0
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.bin_count(0), 3u);
  EXPECT_EQ(a.bin_count(4), 1u);
  EXPECT_DOUBLE_EQ(a.low(), 0.0);
  EXPECT_DOUBLE_EQ(a.high(), 10.0);
}

TEST(IntCounter, CountsAndFractions) {
  IntCounter c;
  c.add(1);
  c.add(1);
  c.add(2);
  c.add(5);
  EXPECT_EQ(c.total(), 4u);
  EXPECT_EQ(c.count_of(1), 2u);
  EXPECT_EQ(c.count_of(3), 0u);
  EXPECT_DOUBLE_EQ(c.fraction_of(1), 0.5);
  EXPECT_DOUBLE_EQ(c.fraction_at_most(2), 0.75);
  EXPECT_EQ(c.max_value(), 5u);
}

TEST(IntCounter, EmptyIsSafe) {
  IntCounter c;
  EXPECT_EQ(c.total(), 0u);
  EXPECT_DOUBLE_EQ(c.fraction_of(0), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_at_most(10), 0.0);
  EXPECT_EQ(c.max_value(), 0u);
}

TEST(FormatTable, AlignsColumns) {
  const std::string out = format_table({"a", "bb"}, {{"xxx", "y"}});
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("xxx"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

}  // namespace
}  // namespace mifo
