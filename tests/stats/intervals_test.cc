// Confidence intervals: reference values, coverage properties, edge cases.
#include "stats/intervals.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stats/distributions.h"
#include "stats/rng.h"

namespace stats = storsubsim::stats;

TEST(WilsonCi, StaysInUnitInterval) {
  // Extreme proportions must not escape [0, 1].
  const auto lo = stats::proportion_ci_wilson(0, 20, 0.99);
  EXPECT_GE(lo.lower, 0.0);
  EXPECT_GT(lo.upper, 0.0);
  const auto hi = stats::proportion_ci_wilson(20, 20, 0.99);
  EXPECT_LE(hi.upper, 1.0);
  EXPECT_LT(hi.lower, 1.0);
}

TEST(WilsonCi, ReferenceValue) {
  // Wilson 95% for 8/10: center = (0.8 + z^2/20)/(1 + z^2/10).
  const auto ci = stats::proportion_ci_wilson(8, 10, 0.95);
  EXPECT_NEAR(ci.lower, 0.4901625, 1e-4);
  EXPECT_NEAR(ci.upper, 0.9433178, 1e-4);
}

TEST(ProportionCi, ZeroTotalThrows) {
  EXPECT_THROW(stats::proportion_ci_wilson(0, 0, 0.95), std::invalid_argument);
}

TEST(GarwoodCi, ZeroEvents) {
  const auto ci = stats::rate_ci_garwood(0, 100.0, 0.95);
  EXPECT_DOUBLE_EQ(ci.lower, 0.0);
  EXPECT_DOUBLE_EQ(ci.point, 0.0);
  // Upper bound for 0 events at 95%: chi2(0.975, 2)/2 / 100 = 3.689/100.
  EXPECT_NEAR(ci.upper, 0.0368888, 1e-5);
}

TEST(GarwoodCi, ReferenceValue) {
  // 10 events over 1 unit exposure, 95%: [4.795, 18.39].
  const auto ci = stats::rate_ci_garwood(10, 1.0, 0.95);
  EXPECT_NEAR(ci.lower, 4.795389, 1e-4);
  EXPECT_NEAR(ci.upper, 18.390358, 1e-4);
  EXPECT_DOUBLE_EQ(ci.point, 10.0);
}

TEST(GarwoodCi, Coverage) {
  // Empirical coverage of the 90% interval under a known rate.
  stats::Rng rng(21);
  const double rate = 3.0;
  const double exposure = 10.0;
  int covered = 0;
  const int trials = 500;
  for (int t = 0; t < trials; ++t) {
    const auto k = stats::Poisson(rate * exposure).sample(rng);
    const auto ci = stats::rate_ci_garwood(k, exposure, 0.90);
    if (ci.contains(rate)) ++covered;
  }
  // Garwood is conservative: coverage >= 90%.
  EXPECT_GE(covered, static_cast<int>(0.88 * trials));
}

TEST(MeanCi, ReferenceValue) {
  // mean=10, var=4, n=16, 95%: t(0.975, 15)=2.131, hw = 2.131*0.5 = 1.0657.
  const auto ci = stats::mean_ci(10.0, 4.0, 16, 0.95);
  EXPECT_NEAR(ci.half_width(), 1.0657, 1e-3);
  EXPECT_NEAR(ci.point, 10.0, 1e-12);
}

TEST(Interval, OverlapSemantics) {
  const stats::Interval a{1.0, 3.0, 2.0};
  const stats::Interval b{2.5, 4.0, 3.0};
  const stats::Interval c{3.5, 5.0, 4.0};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(a.contains(1.0));
  EXPECT_FALSE(a.contains(3.5));
}
