#include "stats/intervals.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/special_functions.h"

namespace storsubsim::stats {

namespace {

double z_for(double confidence) {
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    throw std::invalid_argument("confidence must be in (0,1)");
  }
  return normal_quantile(0.5 + 0.5 * confidence);
}

}  // namespace

Interval proportion_ci_wilson(std::size_t successes, std::size_t total, double confidence) {
  if (total == 0) throw std::invalid_argument("proportion_ci: total == 0");
  const double n = static_cast<double>(total);
  const double p = static_cast<double>(successes) / n;
  const double z = z_for(confidence);
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double hw = (z / denom) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return {std::max(0.0, center - hw), std::min(1.0, center + hw), p};
}

Interval rate_ci_garwood(std::size_t events, double exposure, double confidence) {
  if (!(exposure > 0.0)) throw std::invalid_argument("rate_ci: exposure must be > 0");
  const double alpha = 1.0 - confidence;
  const double k = static_cast<double>(events);
  const double lower =
      events == 0 ? 0.0 : 0.5 * chi_square_quantile(alpha / 2.0, 2.0 * k) / exposure;
  const double upper = 0.5 * chi_square_quantile(1.0 - alpha / 2.0, 2.0 * (k + 1.0)) / exposure;
  return {lower, upper, k / exposure};
}

Interval mean_ci(double mean, double sample_variance, std::size_t n, double confidence) {
  if (n < 2) throw std::invalid_argument("mean_ci: need n >= 2");
  const double nu = static_cast<double>(n) - 1.0;
  const double t = student_t_quantile(0.5 + 0.5 * confidence, nu);
  const double hw = t * std::sqrt(sample_variance / static_cast<double>(n));
  return {mean - hw, mean + hw, mean};
}

}  // namespace storsubsim::stats
