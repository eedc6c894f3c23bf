// Candidate-distribution fitting on interarrival samples.
#include "core/distribution_fit.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stats/distributions.h"
#include "stats/rng.h"

namespace core = storsubsim::core;
namespace stats = storsubsim::stats;

TEST(FitInterarrivals, ThreeCandidatesAlwaysPresent) {
  stats::Rng rng(1);
  std::vector<double> xs(2000);
  const stats::Exponential d(1e-4);
  for (auto& x : xs) x = d.quantile(rng.uniform());
  const auto report = core::fit_interarrivals(xs);
  ASSERT_EQ(report.candidates.size(), 3u);
  EXPECT_EQ(report.candidates[0].family, core::CandidateFamily::kExponential);
  EXPECT_EQ(report.candidates[1].family, core::CandidateFamily::kGamma);
  EXPECT_EQ(report.candidates[2].family, core::CandidateFamily::kWeibull);
  EXPECT_EQ(report.sample_size, 2000u);
}

TEST(FitInterarrivals, ExponentialDataNotRejectedForAnyFamily) {
  // Exponential nests in both Gamma and Weibull: all three should fit.
  stats::Rng rng(2);
  std::vector<double> xs(3000);
  const stats::Exponential d(0.01);
  for (auto& x : xs) x = d.quantile(rng.uniform());
  const auto report = core::fit_interarrivals(xs);
  for (const auto& c : report.candidates) {
    EXPECT_FALSE(c.rejected_at_005) << core::to_string(c.family) << " p=" << c.gof.p_value;
  }
}

TEST(FitInterarrivals, GammaDataPrefersGamma) {
  stats::Rng rng(3);
  std::vector<double> xs(5000);
  const stats::Gamma d(0.45, 2e6);
  for (auto& x : xs) x = d.sample(rng);
  const auto report = core::fit_interarrivals(xs);
  EXPECT_EQ(report.best_by_likelihood().family, core::CandidateFamily::kGamma);
  // Exponential is grossly wrong for shape 0.45.
  EXPECT_TRUE(report.candidates[0].rejected_at_005);
  EXPECT_FALSE(report.candidates[1].rejected_at_005);
  const auto* best = report.best_non_rejected();
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->family, core::CandidateFamily::kGamma);
  EXPECT_NEAR(best->fit.param1, 0.45, 0.05);
}

TEST(FitInterarrivals, ZeroGapsNudgedNotFatal) {
  // >= 20 samples so the chi-square has enough usable bins for 2-parameter
  // fits (minimum expected count 5 per bin).
  std::vector<double> xs = {0.0,  0.0,  10.0, 20.0, 30.0, 40.0, 50.0, 60.0,
                            70.0, 80.0, 15.0, 25.0, 35.0, 45.0, 55.0, 65.0,
                            75.0, 85.0, 12.0, 22.0, 32.0, 42.0, 52.0, 62.0};
  const auto report = core::fit_interarrivals(xs);
  EXPECT_EQ(report.candidates.size(), 3u);
  for (const auto& c : report.candidates) {
    EXPECT_TRUE(std::isfinite(c.fit.log_likelihood));
  }
}

TEST(FitInterarrivals, EmptySampleThrows) {
  EXPECT_THROW(core::fit_interarrivals(std::vector<double>{}), std::invalid_argument);
}

TEST(FitInterarrivals, SubsampleCapsGofPower) {
  // A slightly-wrong model rejected at full n can survive at capped n while
  // the parameter fit (full sample) stays identical.
  stats::Rng rng(4);
  std::vector<double> xs;
  xs.reserve(40000);
  const stats::Gamma bulk(0.6, 1e6);
  for (int i = 0; i < 38000; ++i) xs.push_back(bulk.sample(rng));
  for (int i = 0; i < 2000; ++i) xs.push_back(rng.uniform(1.0, 100.0));  // contamination
  const auto full = core::fit_interarrivals(xs, 20, 0);
  const auto capped = core::fit_interarrivals(xs, 20, 300);
  EXPECT_DOUBLE_EQ(full.candidates[1].fit.param1, capped.candidates[1].fit.param1);
  EXPECT_LE(full.candidates[1].gof.p_value, capped.candidates[1].gof.p_value + 1e-12);
}

TEST(CandidateFit, CdfMatchesFittedDistribution) {
  stats::Rng rng(5);
  std::vector<double> xs(1000);
  const stats::Weibull d(1.3, 500.0);
  for (auto& x : xs) x = d.quantile(rng.uniform());
  const auto report = core::fit_interarrivals(xs);
  const auto& w = report.candidates[2];
  const auto fitted = stats::to_weibull(w.fit);
  for (const double x : {10.0, 100.0, 500.0, 2000.0}) {
    EXPECT_NEAR(w.cdf(x), fitted.cdf(x), 1e-12);
  }
}

TEST(FitReport, BestNonRejectedNullWhenAllRejected) {
  // Bimodal data no single candidate can fit.
  std::vector<double> xs;
  stats::Rng rng(6);
  for (int i = 0; i < 2000; ++i) xs.push_back(rng.uniform(0.9, 1.1));
  for (int i = 0; i < 2000; ++i) xs.push_back(rng.uniform(9e5, 1.1e6));
  const auto report = core::fit_interarrivals(xs);
  EXPECT_EQ(report.best_non_rejected(), nullptr);
}

TEST(CandidateFamily, Names) {
  EXPECT_EQ(core::to_string(core::CandidateFamily::kExponential), "Exponential");
  EXPECT_EQ(core::to_string(core::CandidateFamily::kGamma), "Gamma");
  EXPECT_EQ(core::to_string(core::CandidateFamily::kWeibull), "Weibull");
}
