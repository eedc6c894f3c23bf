// Confidence intervals for proportions, rates and means. The paper reports
// 99.5% and 99.9% confidence intervals on per-cohort AFR estimates
// (Figures 6, 7, 10); these helpers produce the matching error bars.
#pragma once

#include <cstddef>

namespace storsubsim::stats {

struct Interval {
  double lower = 0.0;
  double upper = 0.0;
  double point = 0.0;

  double half_width() const { return 0.5 * (upper - lower); }
  bool contains(double x) const { return x >= lower && x <= upper; }
  bool overlaps(const Interval& other) const {
    return lower <= other.upper && other.lower <= upper;
  }
};

/// Wilson score interval — well-behaved for small counts and extreme p.
Interval proportion_ci_wilson(std::size_t successes, std::size_t total, double confidence);

/// CI for a Poisson rate given `events` over `exposure` (e.g. device-years):
/// exact Garwood interval via chi-square quantiles. Returns the rate, i.e.
/// events per unit exposure.
Interval rate_ci_garwood(std::size_t events, double exposure, double confidence);

/// t-based CI for a mean from summary statistics.
Interval mean_ci(double mean, double sample_variance, std::size_t n, double confidence);

}  // namespace storsubsim::stats
