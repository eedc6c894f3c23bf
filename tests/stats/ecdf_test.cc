// Empirical CDF: evaluation, quantiles, grids.
#include "stats/ecdf.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace stats = storsubsim::stats;

TEST(Ecdf, StepFunctionValues) {
  const stats::Ecdf e(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(e(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e(1.0), 0.25);   // <= semantics
  EXPECT_DOUBLE_EQ(e(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e(4.0), 1.0);
  EXPECT_DOUBLE_EQ(e(100.0), 1.0);
}

TEST(Ecdf, HandlesDuplicates) {
  const stats::Ecdf e(std::vector<double>{2.0, 2.0, 2.0, 5.0});
  EXPECT_DOUBLE_EQ(e(1.9), 0.0);
  EXPECT_DOUBLE_EQ(e(2.0), 0.75);
  EXPECT_DOUBLE_EQ(e(5.0), 1.0);
}

TEST(Ecdf, EmptySample) {
  const stats::Ecdf e;
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e(1.0), 0.0);
  EXPECT_THROW(e.quantile(0.5), std::logic_error);
}

TEST(Ecdf, QuantileInterpolation) {
  const stats::Ecdf e(std::vector<double>{0.0, 10.0});
  EXPECT_DOUBLE_EQ(e.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(e.quantile(1.0), 10.0);
}

TEST(Ecdf, MonotoneOnGrid) {
  stats::Rng rng(3);
  std::vector<double> xs(1000);
  for (auto& x : xs) x = rng.uniform(0.0, 100.0);
  const stats::Ecdf e(std::move(xs));
  const auto grid = stats::log_grid(0.1, 1000.0, 50);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GE(e(grid[i]), e(grid[i - 1]));
  }
}

TEST(LogGrid, EndpointsAndSpacing) {
  const auto grid = stats::log_grid(1.0, 1e8, 9);
  ASSERT_EQ(grid.size(), 9u);
  EXPECT_NEAR(grid.front(), 1.0, 1e-9);
  EXPECT_NEAR(grid.back(), 1e8, 1.0);
  // Each step multiplies by 10.
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_NEAR(grid[i] / grid[i - 1], 10.0, 1e-6);
  }
}

TEST(LogGrid, RejectsBadArguments) {
  EXPECT_THROW(stats::log_grid(0.0, 10.0, 5), std::invalid_argument);
  EXPECT_THROW(stats::log_grid(10.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(stats::log_grid(1.0, 10.0, 1), std::invalid_argument);
}
