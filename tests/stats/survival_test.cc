// Kaplan-Meier and actuarial hazard: textbook values, censoring behavior,
// recovery of known constant hazards.
#include "stats/survival.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stats/distributions.h"
#include "stats/rng.h"

namespace stats = storsubsim::stats;

namespace {

std::vector<stats::SurvivalObservation> obs(std::initializer_list<std::pair<double, bool>> xs) {
  std::vector<stats::SurvivalObservation> out;
  for (const auto& [d, e] : xs) out.push_back({d, e});
  return out;
}

}  // namespace

TEST(KaplanMeier, TextbookExample) {
  // Classic toy set: events at 6, 7; censored at 9; event at 10.
  // n=4: S(6)=3/4; S(7)=3/4 * 2/3 = 1/2; censor at 9; S(10)=1/2 * 0/1 = 0.
  const auto km = stats::KaplanMeier::fit(
      obs({{6.0, true}, {7.0, true}, {9.0, false}, {10.0, true}}));
  EXPECT_DOUBLE_EQ(km.survival(5.9), 1.0);
  EXPECT_DOUBLE_EQ(km.survival(6.0), 0.75);
  EXPECT_DOUBLE_EQ(km.survival(7.5), 0.5);
  EXPECT_DOUBLE_EQ(km.survival(9.5), 0.5);  // censoring does not drop S
  EXPECT_DOUBLE_EQ(km.survival(10.0), 0.0);
  EXPECT_DOUBLE_EQ(km.median(), 7.0);
  EXPECT_EQ(km.total_events(), 3u);
  EXPECT_EQ(km.subjects(), 4u);
}

TEST(KaplanMeier, AllCensored) {
  const auto km = stats::KaplanMeier::fit(obs({{5.0, false}, {8.0, false}}));
  EXPECT_DOUBLE_EQ(km.survival(100.0), 1.0);
  EXPECT_TRUE(std::isinf(km.median()));
  EXPECT_EQ(km.total_events(), 0u);
}

TEST(KaplanMeier, TiedEventTimes) {
  // Two events at t=3 among n=4: S(3) = 2/4.
  const auto km = stats::KaplanMeier::fit(
      obs({{3.0, true}, {3.0, true}, {5.0, false}, {6.0, false}}));
  EXPECT_DOUBLE_EQ(km.survival(3.0), 0.5);
  ASSERT_EQ(km.curve().size(), 1u);
  EXPECT_EQ(km.curve()[0].events, 2u);
  EXPECT_EQ(km.curve()[0].at_risk, 4u);
}

TEST(KaplanMeier, EmptyAndInvalid) {
  const auto km = stats::KaplanMeier::fit({});
  EXPECT_DOUBLE_EQ(km.survival(1.0), 1.0);
  EXPECT_THROW(stats::KaplanMeier::fit(obs({{-1.0, true}})), std::invalid_argument);
}

TEST(KaplanMeier, MatchesExponentialUnderHeavyCensoring) {
  // Exponential lifetimes censored at a fixed horizon: KM must still recover
  // S(t) = exp(-lambda t) on [0, horizon].
  stats::Rng rng(5);
  const double lambda = 1.0 / 400.0;
  const double horizon = 300.0;  // most subjects censored
  std::vector<stats::SurvivalObservation> data;
  for (int i = 0; i < 40000; ++i) {
    const double life = -std::log(rng.uniform_pos()) / lambda;
    data.push_back({std::min(life, horizon), life <= horizon});
  }
  const auto km = stats::KaplanMeier::fit(data);
  for (const double t : {50.0, 150.0, 250.0}) {
    EXPECT_NEAR(km.survival(t), std::exp(-lambda * t), 0.01) << "t=" << t;
  }
}

TEST(HazardByAge, ConstantHazardRecovered) {
  stats::Rng rng(6);
  const double lambda = 1.0 / 200.0;
  std::vector<stats::SurvivalObservation> data;
  for (int i = 0; i < 50000; ++i) {
    const double life = -std::log(rng.uniform_pos()) / lambda;
    data.push_back({std::min(life, 500.0), life <= 500.0});
  }
  const std::vector<double> edges = {0.0, 100.0, 200.0, 400.0};
  const auto bins = stats::hazard_by_age(data, edges);
  ASSERT_EQ(bins.size(), 3u);
  for (const auto& bin : bins) {
    EXPECT_NEAR(bin.rate(), lambda, 0.1 * lambda)
        << "[" << bin.age_lo << "," << bin.age_hi << ")";
    EXPECT_GT(bin.exposure, 0.0);
  }
}

TEST(HazardByAge, DecreasingHazardDetected) {
  // Weibull shape 0.5: hazard falls with age.
  stats::Rng rng(7);
  const stats::Weibull d(0.5, 300.0);
  std::vector<stats::SurvivalObservation> data;
  for (int i = 0; i < 50000; ++i) {
    const double life = d.quantile(rng.uniform());
    data.push_back({std::min(life, 1000.0), life <= 1000.0});
  }
  const std::vector<double> edges = {0.0, 50.0, 400.0, 1000.0};
  const auto bins = stats::hazard_by_age(data, edges);
  EXPECT_GT(bins[0].rate(), 1.5 * bins[1].rate());
  EXPECT_GT(bins[1].rate(), 1.2 * bins[2].rate());
}

TEST(HazardByAge, ExposureArithmetic) {
  // One subject observed to 150 with an event: contributes 100 to [0,100)
  // and 50 to [100,200), and its event lands in the second bin.
  const auto data = obs({{150.0, true}});
  const std::vector<double> edges = {0.0, 100.0, 200.0};
  const auto bins = stats::hazard_by_age(data, edges);
  EXPECT_DOUBLE_EQ(bins[0].exposure, 100.0);
  EXPECT_EQ(bins[0].events, 0u);
  EXPECT_DOUBLE_EQ(bins[1].exposure, 50.0);
  EXPECT_EQ(bins[1].events, 1u);
}

TEST(HazardByAge, RejectsBadEdges) {
  const auto data = obs({{1.0, true}});
  EXPECT_THROW(stats::hazard_by_age(data, std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(stats::hazard_by_age(data, std::vector<double>{2.0, 1.0}),
               std::invalid_argument);
}
