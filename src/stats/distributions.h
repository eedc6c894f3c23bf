// Probability distributions: the candidates the distribution-fitting
// analysis fits to time-between-failure data (paper Figure 9: Exponential,
// Gamma, Weibull) and the samplers the failure simulator draws from (Gamma,
// LogNormal, Poisson).
//
// Each distribution is a small value type: cdf/quantile/log_pdf for the fit
// candidates, sample() for the simulator's draws, and the closed forms
// (pdf, mean, variance, pmf) the tests check those against. Parameters are
// validated at construction; invalid parameters throw std::invalid_argument
// (configuration error, not a hot path).
#pragma once

#include <cstdint>

#include "stats/rng.h"

namespace storsubsim::stats {

/// Exponential(rate). Mean = 1/rate. The memoryless baseline used by
/// classical RAID reliability models (the assumption the paper refutes).
class Exponential {
 public:
  explicit Exponential(double rate);

  double pdf(double x) const;
  double log_pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;

  double mean() const;
  double variance() const;
  double rate() const { return rate_; }

 private:
  double rate_;
};

/// Gamma(shape k, scale theta). Mean = k*theta. The paper finds Gamma is the
/// best (and only non-rejected) fit for disk-failure interarrivals.
class Gamma {
 public:
  Gamma(double shape, double scale);

  double pdf(double x) const;
  double log_pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;
  double sample(Rng& rng) const;

  double mean() const;
  double variance() const;
  double shape() const { return shape_; }
  double scale() const { return scale_; }

 private:
  double shape_;
  double scale_;
};

/// Weibull(shape k, scale lambda). shape < 1 models infant mortality,
/// shape > 1 models wear-out; shape == 1 degenerates to Exponential.
class Weibull {
 public:
  Weibull(double shape, double scale);

  double pdf(double x) const;
  double log_pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;

  double shape() const { return shape_; }
  double scale() const { return scale_; }

 private:
  double shape_;
  double scale_;
};

/// LogNormal(mu, sigma) of the underlying normal. Used for repair/replacement
/// delays, which are right-skewed in practice.
class LogNormal {
 public:
  LogNormal(double mu, double sigma);

  double sample(Rng& rng) const;

  double mean() const;
  double variance() const;
  double mu() const { return mu_; }
  double sigma() const { return sigma_; }

 private:
  double mu_;
  double sigma_;
};

/// Poisson(mean). Counting distribution for event counts in fixed windows.
class Poisson {
 public:
  explicit Poisson(double mean);

  double pmf(std::uint64_t k) const;
  std::uint64_t sample(Rng& rng) const;

  double mean() const { return mean_; }
  double variance() const { return mean_; }

 private:
  double mean_;
};

/// Samples a standard normal via Box–Muller (single draw, no caching so the
/// generator state advance is deterministic per call).
double sample_standard_normal(Rng& rng);

/// Samples Gamma(shape, 1) via Marsaglia–Tsang; valid for any shape > 0.
double sample_standard_gamma(Rng& rng, double shape);

}  // namespace storsubsim::stats
