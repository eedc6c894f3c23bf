#include "stats/special_functions.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace storsubsim::stats {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kEps = 2.220446049250313e-16;

// Lanczos coefficients (g = 7, n = 9), standard set.
constexpr double kLanczos[9] = {
    0.99999999999980993,  676.5203681218851,     -1259.1392167224028,
    771.32342877765313,   -176.61502916214059,   12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};

}  // namespace

double lgamma_fn(double x) {
  if (!(x > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  if (x < 0.5) {
    // Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x).
    return std::log(kPi / std::sin(kPi * x)) - lgamma_fn(1.0 - x);
  }
  const double z = x - 1.0;
  double sum = kLanczos[0];
  for (int i = 1; i < 9; ++i) sum += kLanczos[i] / (z + static_cast<double>(i));
  const double t = z + 7.5;
  return 0.5 * std::log(2.0 * kPi) + (z + 0.5) * std::log(t) - t + std::log(sum);
}

double digamma(double x) {
  if (!(x > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  double result = 0.0;
  // Shift x upward until the asymptotic series is accurate (error
  // ~1/(132 x^10), so x >= 10 gives ~7e-13).
  while (x < 10.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  // Asymptotic expansion: ln x - 1/(2x) - sum B_{2n} / (2n x^{2n}).
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv;
  result -= inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)));
  return result;
}

double trigamma(double x) {
  if (!(x > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  double result = 0.0;
  while (x < 10.0) {
    result += 1.0 / (x * x);
    x += 1.0;
  }
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += inv * (1.0 + 0.5 * inv +
                   inv2 * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 / 30.0))));
  return result;
}

namespace {

// Series expansion for P(a, x), effective for x < a + 1.
double gamma_p_series(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int i = 0; i < 1000; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kEps) break;
  }
  return sum * std::exp(-x + a * std::log(x) - lgamma_fn(a));
}

// Continued fraction for Q(a, x), effective for x >= a + 1. (Lentz.)
double gamma_q_cf(double a, double x) {
  const double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 1000; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEps) break;
  }
  return std::exp(-x + a * std::log(x) - lgamma_fn(a)) * h;
}

}  // namespace

double gamma_p(double a, double x) {
  if (!(a > 0.0) || x < 0.0) return std::numeric_limits<double>::quiet_NaN();
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

double gamma_q(double a, double x) {
  if (!(a > 0.0) || x < 0.0) return std::numeric_limits<double>::quiet_NaN();
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

double gamma_p_inv(double a, double p) {
  if (!(a > 0.0) || !(p >= 0.0) || !(p <= 1.0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (p == 0.0) return 0.0;
  if (p == 1.0) return std::numeric_limits<double>::infinity();
  // Initial guess (Wilson–Hilferty), then Newton with analytic derivative.
  double x;
  const double g = lgamma_fn(a);
  if (a > 1.0) {
    const double z = normal_quantile(p);
    const double t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * std::sqrt(a));
    x = a * t * t * t;
    if (x <= 0.0) x = 1e-8;
  } else {
    const double t = 1.0 - a * (0.253 + a * 0.12);
    x = (p < t) ? std::pow(p / t, 1.0 / a) : 1.0 - std::log((1.0 - p) / (1.0 - t));
  }
  for (int iter = 0; iter < 60; ++iter) {
    const double err = gamma_p(a, x) - p;
    const double dpdx = std::exp(-x + (a - 1.0) * std::log(x) - g);
    if (dpdx == 0.0) break;
    double dx = err / dpdx;
    // Halley-style damping to stay in the domain.
    double x_new = x - dx;
    if (x_new <= 0.0) x_new = 0.5 * x;
    if (std::fabs(x_new - x) < 1e-12 * std::fabs(x) + 1e-300) {
      x = x_new;
      break;
    }
    x = x_new;
  }
  return x;
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double normal_quantile(double p) {
  if (!(p > 0.0) || !(p < 1.0)) {
    if (p == 0.0) return -std::numeric_limits<double>::infinity();
    if (p == 1.0) return std::numeric_limits<double>::infinity();
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Acklam's rational approximation.
  static constexpr double a[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                  -2.759285104469687e+02, 1.383577518672690e+02,
                                  -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                  -1.556989798598866e+02, 6.680131188771972e+01,
                                  -1.328068155288572e+01};
  static constexpr double c[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                  -2.400758277161838e+00, -2.549732539343734e+00,
                                  4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                                  2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement against the exact CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * kPi) * std::exp(0.5 * x * x);
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

double lbeta(double a, double b) { return lgamma_fn(a) + lgamma_fn(b) - lgamma_fn(a + b); }

namespace {

// Continued fraction for the incomplete beta function (Lentz).
double beta_cf(double a, double b, double x) {
  const double kTiny = 1e-300;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= 1000; ++m) {
    const double md = static_cast<double>(m);
    const double m2 = 2.0 * md;
    double aa = md * (b - md) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + md) * (qab + md) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double beta_inc(double a, double b, double x) {
  if (!(a > 0.0) || !(b > 0.0) || x < 0.0 || x > 1.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front = a * std::log(x) + b * std::log(1.0 - x) - lbeta(a, b);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cf(a, b, x) / a;
  }
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

double student_t_cdf(double t, double nu) {
  if (!(nu > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  const double x = nu / (nu + t * t);
  const double p_half = 0.5 * beta_inc(0.5 * nu, 0.5, x);
  return (t >= 0.0) ? 1.0 - p_half : p_half;
}

double student_t_quantile(double p, double nu) {
  if (!(p > 0.0) || !(p < 1.0) || !(nu > 0.0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Bisection on the CDF: robust and fast enough for inference-time use.
  double lo = -1.0, hi = 1.0;
  while (student_t_cdf(lo, nu) > p) lo *= 2.0;
  while (student_t_cdf(hi, nu) < p) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (student_t_cdf(mid, nu) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * (1.0 + std::fabs(hi))) break;
  }
  return 0.5 * (lo + hi);
}

double chi_square_sf(double x, double k) {
  if (!(k > 0.0) || x < 0.0) return std::numeric_limits<double>::quiet_NaN();
  return gamma_q(0.5 * k, 0.5 * x);
}

double chi_square_quantile(double p, double k) {
  if (!(k > 0.0) || !(p >= 0.0) || !(p < 1.0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return 2.0 * gamma_p_inv(0.5 * k, p);
}

}  // namespace storsubsim::stats
