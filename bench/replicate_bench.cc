// Replication-engine throughput and the sequential-stopping payoff.
//
// Part 1 is a fixed-N ladder (8/16/32 replicates by default): wall time and
// replicates/sec at each rung, plus the afr.total relative CI half-width —
// the numbers behind docs/REPLICATION.md's "CI shrinks like 1/sqrt(N), cost
// grows linearly" framing. Part 2 re-runs the largest rung with a ci_rel
// target and reports how many replicates the sequential rule actually spent
// against the fixed budget, and the wall time saved.
//
// Fidelity gate: the ladder's base rung is recomputed at 1 thread and its
// STORREP1 image must be byte-identical to the pool run — a replicator that
// is fast but schedule-dependent exits nonzero. The one output is the run
// manifest (default BENCH_replicate.json): per rung `wall_seconds_<n>`,
// `replicates_per_second_<n>`, `afr_rel_half_width_<n>`, plus the
// sequential-stopping run and the `thread_invariant` gate.
//
//   replicate_bench [--scale=<f>] [--seed=<n>] [--threads=<n>]
//                   [--ci-rel=<r>] [--manifest=<path>]
#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "replicate/replicate.h"
#include "replicate/table.h"
#include "util/parallel.h"
#include "util/rss.h"

namespace {

using namespace storsubsim;

struct RungResult {
  std::size_t replicates = 0;
  double wall_seconds = 0.0;
  double replicates_per_second = 0.0;
  double afr_rel_half_width = 0.0;  ///< afr.total CI half-width / |mean|
};

double afr_total_rel_hw(const replicate::ReplicateSummary& summary) {
  const auto& stat = summary.stats.front();  // afr.total leads the table
  return stat.mean == 0.0 ? 0.0 : stat.ci.half_width() / stat.mean;
}

}  // namespace

int main(int argc, char** argv) {
  double ci_rel = 0.15;
  const auto options = bench::parse_options(
      argc, argv, "BENCH_replicate.json", [&](std::string_view name, std::string_view value) {
        if (name != "ci-rel") return false;
        ci_rel = bench::parse_real(name, value);
        return true;
      });

  replicate::ReplicateOptions base;
  base.scale = options.scale;
  base.seed = options.seed;
  base.min_replicates = 4;
  base.batch = 4;

  std::cout << "replication ladder at scale " << base.scale << " (seed " << base.seed
            << ", " << util::thread_count() << " thread(s))\n";

  const std::size_t ladder[] = {8, 16, 32};
  std::vector<RungResult> rungs;
  std::string base_table;
  for (const std::size_t n : ladder) {
    auto opts = base;
    opts.max_replicates = n;
    const double t0 = obs::now_seconds();
    const auto summary = replicate::run_replication(opts);
    const double wall = obs::now_seconds() - t0;
    RungResult rung;
    rung.replicates = summary.replicates;
    rung.wall_seconds = wall;
    rung.replicates_per_second =
        wall > 0.0 ? static_cast<double>(summary.replicates) / wall : 0.0;
    rung.afr_rel_half_width = afr_total_rel_hw(summary);
    rungs.push_back(rung);
    if (n == ladder[0]) base_table = replicate::encode_table(summary);
    std::cout << n << " replicates: " << wall << " s (" << rung.replicates_per_second
              << " replicates/s), afr.total rel CI half-width "
              << rung.afr_rel_half_width << "\n";
  }

  // Fidelity gate: the base rung recomputed serially must serialize to the
  // exact bytes the pooled run produced.
  util::set_thread_count(1);
  auto serial_opts = base;
  serial_opts.max_replicates = ladder[0];
  const bool thread_invariant =
      replicate::encode_table(replicate::run_replication(serial_opts)) == base_table;
  util::set_thread_count(options.threads);
  std::cout << "thread-invariance " << (thread_invariant ? "clean" : "MISMATCH") << "\n";

  // Sequential stopping against the largest fixed budget.
  auto stop_opts = base;
  stop_opts.max_replicates = ladder[2];
  stop_opts.ci_rel = ci_rel;
  const double t0 = obs::now_seconds();
  const auto stopped = replicate::run_replication(stop_opts);
  const double stop_wall = obs::now_seconds() - t0;
  const double fixed_wall = rungs.back().wall_seconds;
  std::cout << "sequential stopping (ci_rel " << ci_rel << "): "
            << stopped.replicates << "/" << stop_opts.max_replicates
            << " replicates (" << replicate::to_string(stopped.stop_reason) << "), "
            << stop_wall << " s vs " << fixed_wall << " s fixed-N\n";

  std::vector<std::pair<std::string, double>> numbers;
  for (const auto& rung : rungs) {
    const std::string suffix = std::to_string(rung.replicates);
    numbers.emplace_back("wall_seconds_" + suffix, rung.wall_seconds);
    numbers.emplace_back("replicates_per_second_" + suffix, rung.replicates_per_second);
    numbers.emplace_back("afr_rel_half_width_" + suffix, rung.afr_rel_half_width);
  }
  numbers.emplace_back("ci_rel", ci_rel);
  numbers.emplace_back("sequential_budget", static_cast<double>(stop_opts.max_replicates));
  numbers.emplace_back("sequential_replicates", static_cast<double>(stopped.replicates));
  numbers.emplace_back("sequential_wall_seconds", stop_wall);
  numbers.emplace_back("fixed_wall_seconds", fixed_wall);
  numbers.emplace_back("thread_invariant", thread_invariant ? 1.0 : 0.0);
  numbers.emplace_back("peak_rss_bytes", static_cast<double>(util::peak_rss_bytes()));
  bench::finish_run("bench/replicate_bench", options, numbers,
                    {{"stop_reason", std::string(replicate::to_string(stopped.stop_reason))}});
  return thread_invariant ? 0 : 1;
}
