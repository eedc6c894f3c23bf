// Clocks, sample statistics and the measurement loops the workloads share.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.h"
#include "obs/obs.h"
#include "util/rss.h"

namespace perfbench {

double now() { return storsubsim::obs::now_seconds(); }

double cpu_seconds() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  return static_cast<double>(storsubsim::util::peak_rss_bytes()) / (1024.0 * 1024.0);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] + (h - static_cast<double>(lo)) * (values[lo + 1] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double tail_quantile(std::size_t samples) {
  if (samples == 0) return 0.5;
  const double q = 1.0 - 10.0 / static_cast<double>(samples);
  return std::clamp(q, 0.5, 0.99);
}

double default_scale(const std::string& workload) {
  return workload == "replicate" ? 0.2 : 1.0;
}

std::string store_path(const Options& opt) { return opt.dir + "/fleet.store"; }
std::string shards_path(const Options& opt) { return opt.dir + "/fleet.shards"; }

void report_end_to_end(Result& result, double setup_s, const OpSamples& ops) {
  const double q = tail_quantile(ops.wall.size());
  const auto n = static_cast<double>(ops.wall.size());
  result.metric("setup_s", setup_s, "s");
  result.metric("op_ms", median(ops.wall) * 1e3, "ms");
  result.metric("tail_ms", percentile(ops.wall, q) * 1e3, "ms");
  result.metric("throughput_per_s",
                ops.window > 0.0 ? static_cast<double>(ops.units) / ops.window : 0.0, "1/s");
  result.metric("cpu_ms", n > 0.0 ? ops.cpu / n * 1e3 : 0.0, "ms");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.info.emplace_back("samples", std::to_string(ops.wall.size()));
  result.info.emplace_back("tail_quantile", std::to_string(q));
  if (ops.wall.size() <= 100) {
    std::string walls;
    for (const double w : ops.wall) {
      if (!walls.empty()) walls += ' ';
      walls += std::to_string(w);
    }
    result.info.emplace_back("op_wall_s", walls);
  }
}

OpSamples measure_ops(double seconds, std::uint64_t units_per_op, Result& result,
                      const std::function<OpOutcome()>& op) {
  OpSamples samples;
  const double deadline = now() + seconds;
  do {
    const OpOutcome outcome = op();
    result.count(outcome.ok);
    samples.wall.push_back(outcome.wall);
    samples.window += outcome.wall;
    samples.cpu += outcome.cpu;
    if (outcome.ok) samples.units += units_per_op;
  } while (now() < deadline);
  return samples;
}

double measure_traced(double seconds, Result& result,
                      const std::function<OpOutcome()>& op) {
  std::vector<double> untraced;
  std::vector<double> traced;
  storsubsim::obs::reset_trace();
  const double deadline = now() + seconds;
  do {
    const bool trace = traced.size() < untraced.size();
    set_tracing(trace);
    const OpOutcome outcome = op();
    set_tracing(false);
    result.count(outcome.ok);
    (trace ? traced : untraced).push_back(outcome.wall);
  } while (now() < deadline || traced.empty());
  return median(traced) / median(untraced) - 1.0;
}

}  // namespace perfbench
