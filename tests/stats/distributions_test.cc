// Distribution correctness: pdf/cdf/quantile identities and parameterized
// property sweeps verifying sampler (and inverse-transform) moments against
// the closed-form mean and variance.
#include "stats/distributions.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "stats/summary.h"

namespace stats = storsubsim::stats;
using stats::Rng;

namespace {

template <typename D>
void expect_quantile_roundtrip(const D& d, double p, double tol = 1e-9) {
  EXPECT_NEAR(d.cdf(d.quantile(p)), p, tol) << "p=" << p;
}

template <typename D>
void expect_pdf_integrates_cdf(const D& d, double lo, double hi, double tol) {
  // Trapezoidal integral of the pdf over [lo, hi] should match the CDF delta.
  const int n = 4000;
  double sum = 0.0;
  const double h = (hi - lo) / n;
  for (int i = 0; i <= n; ++i) {
    const double w = (i == 0 || i == n) ? 0.5 : 1.0;
    sum += w * d.pdf(lo + i * h);
  }
  EXPECT_NEAR(sum * h, d.cdf(hi) - d.cdf(lo), tol);
}

}  // namespace

TEST(Exponential, Basics) {
  const stats::Exponential d(0.5);
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
  EXPECT_DOUBLE_EQ(d.variance(), 4.0);
  EXPECT_DOUBLE_EQ(d.cdf(0.0), 0.0);
  EXPECT_NEAR(d.cdf(2.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(d.pdf(-1.0), 0.0);
  for (const double p : {0.05, 0.5, 0.95}) expect_quantile_roundtrip(d, p);
  expect_pdf_integrates_cdf(d, 0.0, 10.0, 1e-6);
}

TEST(Exponential, RejectsBadParams) {
  EXPECT_THROW(stats::Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(stats::Exponential(-2.0), std::invalid_argument);
}

TEST(Gamma, Basics) {
  const stats::Gamma d(3.0, 2.0);
  EXPECT_DOUBLE_EQ(d.mean(), 6.0);
  EXPECT_DOUBLE_EQ(d.variance(), 12.0);
  // Gamma(1, theta) == Exponential(1/theta).
  const stats::Gamma g1(1.0, 4.0);
  const stats::Exponential e(0.25);
  for (const double x : {0.3, 1.0, 5.0, 20.0}) {
    EXPECT_NEAR(g1.cdf(x), e.cdf(x), 1e-12);
    EXPECT_NEAR(g1.pdf(x), e.pdf(x), 1e-12);
  }
  for (const double p : {0.1, 0.5, 0.9}) expect_quantile_roundtrip(d, p, 1e-7);
  expect_pdf_integrates_cdf(d, 0.0, 40.0, 1e-6);
}

TEST(Weibull, Basics) {
  const stats::Weibull d(2.0, 3.0);
  // Median = scale * ln(2)^(1/shape).
  EXPECT_NEAR(d.quantile(0.5), 3.0 * std::sqrt(std::log(2.0)), 1e-12);
  // Weibull(1, s) == Exponential(1/s).
  const stats::Weibull w1(1.0, 2.0);
  const stats::Exponential e(0.5);
  for (const double x : {0.2, 1.0, 4.0}) {
    EXPECT_NEAR(w1.cdf(x), e.cdf(x), 1e-12);
  }
  for (const double p : {0.1, 0.5, 0.9}) expect_quantile_roundtrip(d, p);
  expect_pdf_integrates_cdf(d, 0.0, 15.0, 1e-6);
}

TEST(LogNormal, Basics) {
  const stats::LogNormal d(1.0, 0.5);
  EXPECT_NEAR(d.mean(), std::exp(1.0 + 0.125), 1e-9);
  EXPECT_THROW(stats::LogNormal(0.0, 0.0), std::invalid_argument);
  // The sampler is positive and its median is exp(mu).
  Rng rng(11);
  std::vector<double> xs(20001);
  for (auto& x : xs) x = d.sample(rng);
  EXPECT_GT(*std::min_element(xs.begin(), xs.end()), 0.0);
  std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
  EXPECT_NEAR(xs[10000], std::exp(1.0), 0.05);
}

TEST(Poisson, PmfSumsToOne) {
  const stats::Poisson d(4.2);
  double total = 0.0;
  for (std::uint64_t k = 0; k < 60; ++k) total += d.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(Poisson, CdfMatchesPmfSum) {
  // The sampler's empirical CDF matches the running sum of the pmf.
  const stats::Poisson d(7.7);
  Rng rng(12);
  const int n = 50000;
  std::vector<int> counts(25, 0);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t k = d.sample(rng);
    if (k < counts.size()) ++counts[k];
  }
  double cumulative = 0.0;
  int seen = 0;
  for (std::uint64_t k = 0; k < counts.size(); ++k) {
    cumulative += d.pmf(k);
    seen += counts[k];
    EXPECT_NEAR(static_cast<double>(seen) / n, cumulative, 0.01) << "k=" << k;
  }
}

TEST(Poisson, ZeroMean) {
  const stats::Poisson d(0.0);
  Rng rng(1);
  EXPECT_EQ(d.sample(rng), 0u);
  EXPECT_DOUBLE_EQ(d.pmf(0), 1.0);
}

// ---------------------------------------------------------------------------
// Property sweeps: sampler moments match analytic moments.
// ---------------------------------------------------------------------------

struct MomentCase {
  const char* name;
  double mean;
  double variance;
  std::function<double(Rng&)> sample;
};

class SamplerMoments : public ::testing::TestWithParam<int> {};

TEST_P(SamplerMoments, MeanAndVarianceMatch) {
  const int idx = GetParam();
  Rng rng(1234 + static_cast<std::uint64_t>(idx));
  std::vector<MomentCase> cases;
  // Exponential and Weibull have no sampler: their cases draw by inverse
  // transform through quantile().
  cases.push_back({"exp", stats::Exponential(0.5).mean(), stats::Exponential(0.5).variance(),
                   [](Rng& r) { return stats::Exponential(0.5).quantile(r.uniform()); }});
  cases.push_back({"gamma-small", stats::Gamma(0.4, 2.0).mean(),
                   stats::Gamma(0.4, 2.0).variance(),
                   [](Rng& r) { return stats::Gamma(0.4, 2.0).sample(r); }});
  cases.push_back({"gamma-big", stats::Gamma(30.0, 0.5).mean(),
                   stats::Gamma(30.0, 0.5).variance(),
                   [](Rng& r) { return stats::Gamma(30.0, 0.5).sample(r); }});
  // Weibull(k, s): mean s G(1 + 1/k), variance s^2 (G(1 + 2/k) - G(1 + 1/k)^2).
  const double g1 = std::tgamma(1.0 + 1.0 / 1.7);
  const double g2 = std::tgamma(1.0 + 2.0 / 1.7);
  cases.push_back({"weibull", 3.0 * g1, 9.0 * (g2 - g1 * g1),
                   [](Rng& r) { return stats::Weibull(1.7, 3.0).quantile(r.uniform()); }});
  cases.push_back({"lognormal", stats::LogNormal(0.3, 0.6).mean(),
                   stats::LogNormal(0.3, 0.6).variance(),
                   [](Rng& r) { return stats::LogNormal(0.3, 0.6).sample(r); }});
  cases.push_back({"poisson-small", 2.5, 2.5,
                   [](Rng& r) {
                     return static_cast<double>(stats::Poisson(2.5).sample(r));
                   }});
  cases.push_back({"poisson-large", 80.0, 80.0,
                   [](Rng& r) {
                     return static_cast<double>(stats::Poisson(80.0).sample(r));
                   }});
  const auto& c = cases[static_cast<std::size_t>(idx)];

  stats::Accumulator acc;
  const int n = 60000;
  for (int i = 0; i < n; ++i) acc.add(c.sample(rng));
  // 5-sigma tolerance on the mean, generous tolerance on the variance.
  const double mean_tol = 5.0 * std::sqrt(c.variance / n);
  EXPECT_NEAR(acc.mean(), c.mean, mean_tol) << c.name;
  EXPECT_NEAR(acc.variance(), c.variance, 0.12 * c.variance + 1e-9) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, SamplerMoments, ::testing::Range(0, 7));

TEST(StandardGamma, SmallShapeMean) {
  // The shape < 1 augmentation path must keep the mean = shape.
  Rng rng(99);
  stats::Accumulator acc;
  for (int i = 0; i < 80000; ++i) acc.add(stats::sample_standard_gamma(rng, 0.25));
  EXPECT_NEAR(acc.mean(), 0.25, 0.02);
}

TEST(StandardNormal, MomentsAndSymmetry) {
  Rng rng(7);
  stats::Accumulator acc;
  int positives = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double z = stats::sample_standard_normal(rng);
    acc.add(z);
    if (z > 0.0) ++positives;
  }
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.variance(), 1.0, 0.03);
  EXPECT_NEAR(static_cast<double>(positives) / n, 0.5, 0.01);
}

TEST(SampleDistribution, EmpiricalCdfMatchesAnalytic) {
  // Kolmogorov-style check: max deviation between empirical and analytic CDF
  // should be small for a correct sampler.
  Rng rng(42);
  const stats::Gamma d(2.3, 1.7);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = d.sample(rng);
  std::sort(xs.begin(), xs.end());
  double max_dev = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double emp = static_cast<double>(i + 1) / static_cast<double>(xs.size());
    max_dev = std::max(max_dev, std::fabs(emp - d.cdf(xs[i])));
  }
  // KS 1% critical value ~ 1.63/sqrt(n) ~ 0.0115.
  EXPECT_LT(max_dev, 0.0115);
}
