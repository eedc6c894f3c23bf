#include "stats/ecdf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace storsubsim::stats {

Ecdf::Ecdf(std::vector<double> sample) : sorted_(std::move(sample)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::operator()(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double p) const {
  if (sorted_.empty()) throw std::logic_error("Ecdf::quantile on empty sample");
  if (p <= 0.0) return sorted_.front();
  if (p >= 1.0) return sorted_.back();
  const double h = p * (static_cast<double>(sorted_.size()) - 1.0);
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const double frac = h - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] + frac * (sorted_[lo + 1] - sorted_[lo]);
}

std::vector<double> log_grid(double lo, double hi, std::size_t points) {
  if (!(lo > 0.0) || !(hi > lo) || points < 2) {
    throw std::invalid_argument("log_grid: need 0 < lo < hi and points >= 2");
  }
  std::vector<double> grid;
  grid.reserve(points);
  const double llo = std::log10(lo);
  const double lhi = std::log10(hi);
  for (std::size_t i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(points - 1);
    grid.push_back(std::pow(10.0, llo + t * (lhi - llo)));
  }
  return grid;
}

}  // namespace storsubsim::stats
