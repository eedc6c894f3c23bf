#include "stats/survival.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace storsubsim::stats {

KaplanMeier KaplanMeier::fit(std::span<const SurvivalObservation> observations) {
  KaplanMeier km;
  km.n_ = observations.size();
  if (observations.empty()) return km;

  std::vector<SurvivalObservation> sorted(observations.begin(), observations.end());
  for (const auto& o : sorted) {
    if (!(o.duration >= 0.0)) {
      throw std::invalid_argument("KaplanMeier: durations must be nonnegative");
    }
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const SurvivalObservation& a, const SurvivalObservation& b) {
              return a.duration < b.duration;
            });

  double survival = 1.0;
  std::size_t i = 0;
  std::size_t at_risk = sorted.size();
  while (i < sorted.size()) {
    const double t = sorted[i].duration;
    std::size_t events = 0;
    std::size_t leaving = 0;
    while (i < sorted.size() && sorted[i].duration == t) {
      if (sorted[i].event) ++events;
      ++leaving;
      ++i;
    }
    if (events > 0) {
      const double n = static_cast<double>(at_risk);
      const double d = static_cast<double>(events);
      survival *= (n - d) / n;
      km.points_.push_back(SurvivalPoint{t, survival, at_risk, events});
      km.events_ += events;
    }
    at_risk -= leaving;
  }
  return km;
}

double KaplanMeier::survival(double t) const {
  // Last point with time <= t.
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double x, const SurvivalPoint& p) { return x < p.time; });
  if (it == points_.begin()) return 1.0;
  return (it - 1)->survival;
}

double KaplanMeier::median() const {
  for (const auto& p : points_) {
    if (p.survival <= 0.5) return p.time;
  }
  return std::numeric_limits<double>::infinity();
}

std::vector<HazardBin> hazard_by_age(std::span<const SurvivalObservation> observations,
                                     std::span<const double> edges) {
  if (edges.size() < 2) throw std::invalid_argument("hazard_by_age: need >= 2 edges");
  for (std::size_t i = 1; i < edges.size(); ++i) {
    if (!(edges[i] > edges[i - 1])) {
      throw std::invalid_argument("hazard_by_age: edges must be increasing");
    }
  }
  std::vector<HazardBin> bins(edges.size() - 1);
  for (std::size_t b = 0; b < bins.size(); ++b) {
    bins[b].age_lo = edges[b];
    bins[b].age_hi = edges[b + 1];
  }
  for (const auto& o : observations) {
    for (auto& bin : bins) {
      const double lo = bin.age_lo;
      const double hi = std::min(bin.age_hi, o.duration);
      if (hi > lo) bin.exposure += hi - lo;
      if (o.event && o.duration >= bin.age_lo && o.duration < bin.age_hi) ++bin.events;
    }
  }
  return bins;
}

}  // namespace storsubsim::stats
