// Empirical cumulative distribution functions.
//
// Figure 9 of the paper plots empirical CDFs of time-between-failures on a
// log-spaced time axis from 1 second to 1e8 seconds; `log_grid` produces the
// matching evaluation grid.
#pragma once

#include <cstddef>
#include <vector>

namespace storsubsim::stats {

/// Immutable empirical CDF over a sample. Construction sorts a copy of the
/// data; evaluation is O(log n).
class Ecdf {
 public:
  Ecdf() = default;
  explicit Ecdf(std::vector<double> sample);

  /// Fraction of observations <= x.
  double operator()(double x) const;

  /// p-th sample quantile (type-7 / linear interpolation), p in [0, 1].
  double quantile(double p) const;

  std::size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

 private:
  std::vector<double> sorted_;
};

/// Log-spaced grid of `points` values spanning [lo, hi] inclusive (lo > 0).
std::vector<double> log_grid(double lo, double hi, std::size_t points);

}  // namespace storsubsim::stats
