// Correctness of special functions against closed-form values and known
// reference numbers (Abramowitz & Stegun / scipy cross-checks).
#include "stats/special_functions.h"

#include <cmath>
#include <gtest/gtest.h>

namespace stats = storsubsim::stats;

TEST(LGamma, MatchesFactorials) {
  // Gamma(n) = (n-1)!
  double factorial = 1.0;
  for (int n = 1; n <= 15; ++n) {
    EXPECT_NEAR(stats::lgamma_fn(n), std::log(factorial), 1e-10) << "n=" << n;
    factorial *= n;
  }
}

TEST(LGamma, HalfIntegerValues) {
  // Gamma(1/2) = sqrt(pi); Gamma(3/2) = sqrt(pi)/2.
  const double sqrt_pi = std::sqrt(3.14159265358979323846);
  EXPECT_NEAR(std::exp(stats::lgamma_fn(0.5)), sqrt_pi, 1e-10);
  EXPECT_NEAR(std::exp(stats::lgamma_fn(1.5)), 0.5 * sqrt_pi, 1e-10);
  EXPECT_NEAR(std::exp(stats::lgamma_fn(2.5)), 0.75 * sqrt_pi, 1e-9);
}

TEST(LGamma, ReflectionRegion) {
  // Gamma(0.25) = 3.6256099082... (reference value).
  EXPECT_NEAR(std::exp(stats::lgamma_fn(0.25)), 3.62560990822191, 1e-9);
}

TEST(LGamma, InvalidDomain) {
  EXPECT_TRUE(std::isnan(stats::lgamma_fn(0.0)));
  EXPECT_TRUE(std::isnan(stats::lgamma_fn(-1.0)));
}

TEST(Digamma, KnownValues) {
  // digamma(1) = -gamma_E.
  EXPECT_NEAR(stats::digamma(1.0), -0.5772156649015329, 1e-10);
  // digamma(2) = 1 - gamma_E.
  EXPECT_NEAR(stats::digamma(2.0), 1.0 - 0.5772156649015329, 1e-10);
  // digamma(0.5) = -gamma_E - 2 ln 2.
  EXPECT_NEAR(stats::digamma(0.5), -0.5772156649015329 - 2.0 * std::log(2.0), 1e-9);
}

TEST(Digamma, RecurrenceHolds) {
  // digamma(x+1) = digamma(x) + 1/x.
  for (const double x : {0.3, 1.7, 4.2, 9.9}) {
    EXPECT_NEAR(stats::digamma(x + 1.0), stats::digamma(x) + 1.0 / x, 1e-10) << "x=" << x;
  }
}

TEST(Trigamma, KnownValues) {
  // trigamma(1) = pi^2/6.
  EXPECT_NEAR(stats::trigamma(1.0), 3.14159265358979323846 * 3.14159265358979323846 / 6.0,
              1e-9);
}

TEST(Trigamma, RecurrenceHolds) {
  for (const double x : {0.4, 2.5, 7.3}) {
    EXPECT_NEAR(stats::trigamma(x + 1.0), stats::trigamma(x) - 1.0 / (x * x), 1e-9)
        << "x=" << x;
  }
}

TEST(GammaP, BoundaryValues) {
  EXPECT_DOUBLE_EQ(stats::gamma_p(2.0, 0.0), 0.0);
  EXPECT_NEAR(stats::gamma_p(2.0, 1e9), 1.0, 1e-12);
}

TEST(GammaP, ExponentialSpecialCase) {
  // P(1, x) = 1 - exp(-x).
  for (const double x : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(stats::gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12) << "x=" << x;
  }
}

TEST(GammaP, ComplementsSumToOne) {
  for (const double a : {0.3, 1.0, 2.7, 12.0}) {
    for (const double x : {0.05, 0.8, 2.0, 9.0, 30.0}) {
      EXPECT_NEAR(stats::gamma_p(a, x) + stats::gamma_q(a, x), 1.0, 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(GammaPInv, RoundTrips) {
  for (const double a : {0.4, 1.0, 3.5, 20.0}) {
    for (const double p : {0.01, 0.2, 0.5, 0.8, 0.99}) {
      const double x = stats::gamma_p_inv(a, p);
      EXPECT_NEAR(stats::gamma_p(a, x), p, 1e-8) << "a=" << a << " p=" << p;
    }
  }
}

TEST(NormalCdf, StandardValues) {
  EXPECT_NEAR(stats::normal_cdf(0.0), 0.5, 1e-14);
  EXPECT_NEAR(stats::normal_cdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(stats::normal_cdf(-1.959963984540054), 0.025, 1e-9);
}

TEST(NormalQuantile, RoundTrips) {
  for (const double p : {0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999}) {
    EXPECT_NEAR(stats::normal_cdf(stats::normal_quantile(p)), p, 1e-10) << "p=" << p;
  }
}

TEST(NormalQuantile, KnownCriticalValues) {
  EXPECT_NEAR(stats::normal_quantile(0.975), 1.959963984540054, 1e-8);
  EXPECT_NEAR(stats::normal_quantile(0.995), 2.5758293035489004, 1e-8);
  EXPECT_NEAR(stats::normal_quantile(0.5), 0.0, 1e-12);
}

TEST(BetaInc, BoundariesAndSymmetry) {
  EXPECT_DOUBLE_EQ(stats::beta_inc(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats::beta_inc(2.0, 3.0, 1.0), 1.0);
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  for (const double x : {0.1, 0.35, 0.6, 0.9}) {
    EXPECT_NEAR(stats::beta_inc(2.5, 1.5, x), 1.0 - stats::beta_inc(1.5, 2.5, 1.0 - x),
                1e-12);
  }
}

TEST(BetaInc, UniformSpecialCase) {
  // I_x(1, 1) = x.
  for (const double x : {0.2, 0.5, 0.77}) {
    EXPECT_NEAR(stats::beta_inc(1.0, 1.0, x), x, 1e-12);
  }
}

TEST(StudentT, LargeNuApproachesNormal) {
  for (const double t : {-2.0, -0.5, 0.0, 1.0, 2.5}) {
    EXPECT_NEAR(stats::student_t_cdf(t, 1e6), stats::normal_cdf(t), 1e-4) << "t=" << t;
  }
}

TEST(StudentT, CauchySpecialCase) {
  // nu = 1 is the Cauchy distribution: CDF = 1/2 + atan(t)/pi.
  for (const double t : {-3.0, -1.0, 0.0, 0.5, 4.0}) {
    EXPECT_NEAR(stats::student_t_cdf(t, 1.0),
                0.5 + std::atan(t) / 3.14159265358979323846, 1e-10)
        << "t=" << t;
  }
}

TEST(StudentT, QuantileRoundTrips) {
  // Tolerance 5e-8: the nu/(nu + t^2) parameterization has a numerical
  // plateau of width ~sqrt(eps * nu) around t = 0, bounding the achievable
  // round-trip accuracy near the median.
  for (const double nu : {1.0, 5.0, 30.0}) {
    for (const double p : {0.05, 0.3, 0.5, 0.9, 0.995}) {
      EXPECT_NEAR(stats::student_t_cdf(stats::student_t_quantile(p, nu), nu), p, 5e-8)
          << "nu=" << nu << " p=" << p;
    }
  }
}

TEST(StudentT, TwoSidedPValue) {
  // The two-sided p-value 2 F(-|t|) from the CDF's lower tail: 1 at t=0,
  // ~0 for a huge |t|, and the tails are mirror images.
  EXPECT_NEAR(2.0 * stats::student_t_cdf(0.0, 10.0), 1.0, 1e-12);
  EXPECT_LT(2.0 * stats::student_t_cdf(-50.0, 10.0), 1e-10);
  EXPECT_NEAR(stats::student_t_cdf(-2.3, 7.0), 1.0 - stats::student_t_cdf(2.3, 7.0), 1e-12);
}

TEST(ChiSquare, KnownCriticalValues) {
  // Chi-square upper 5% critical value for k=1 is 3.841; CDF checks.
  EXPECT_NEAR(stats::chi_square_sf(3.841458820694124, 1.0), 0.05, 1e-8);
  // k=10, x=18.307 -> 0.05.
  EXPECT_NEAR(stats::chi_square_sf(18.307038053275146, 10.0), 0.05, 1e-8);
}

TEST(ChiSquare, QuantileRoundTrips) {
  for (const double k : {1.0, 4.0, 12.0}) {
    for (const double p : {0.05, 0.5, 0.95, 0.995}) {
      const double x = stats::chi_square_quantile(p, k);
      EXPECT_NEAR(1.0 - stats::chi_square_sf(x, k), p, 1e-8) << "k=" << k << " p=" << p;
    }
  }
}
