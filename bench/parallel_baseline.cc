// Perf baseline for the fleet-parallel execution layer.
//
// Sweeps `simulate_and_analyze` (simulate -> emit logs -> parse -> classify)
// across a thread ladder (default 1/2/4/8) at fleet scales 0.25 and 1.0 (the
// paper's full ~39k-system fleet), verifies every configuration produces the
// identical dataset, and records the scaling curve in one run manifest
// (default BENCH_parallel.json).
//
//   parallel_baseline [--threads-list=1,2,4,8] [--seed=<n>] [--repeat=<n>]
//                     [--manifest=<path>]
//
// --repeat runs each timed configuration n times and keeps the fastest run
// (min-of-N suppresses scheduler noise; the dataset is identical each time).
// The serial rung also records the per-stage wall-time breakdown reported by
// the pipeline (PipelineStats::stage_seconds) of that fastest run, and the
// manifest records the process peak RSS. Numbers are named per scale and
// rung: `scale1_t4_seconds`, `scale1_t4_speedup`, `scale1_t4_identical`, ...
// The program exits nonzero when any rung is not bit-identical.
//
// Single-core guard: a scaling curve measured on a 1-hardware-thread host is
// pure scheduler noise dressed up as a speedup, so this bench REFUSES to run
// there — it writes a manifest recording the refusal and exits non-zero.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/pipeline.h"
#include "model/fleet_config.h"
#include "util/parallel.h"
#include "util/rss.h"

namespace {

using namespace storsubsim;

bool datasets_equal(const core::SimulationDataset& a, const core::SimulationDataset& b) {
  if (a.dataset.events().size() != b.dataset.events().size()) return false;
  for (std::size_t i = 0; i < a.dataset.events().size(); ++i) {
    if (!(a.dataset.events()[i] == b.dataset.events()[i])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<unsigned> threads_list = {1, 2, 4, 8};
  const auto options = bench::parse_options(
      argc, argv, "BENCH_parallel.json", [&](std::string_view name, std::string_view value) {
        if (name != "threads-list") return false;
        threads_list.clear();
        while (!value.empty()) {
          const std::size_t comma = value.find(',');
          threads_list.push_back(static_cast<unsigned>(bench::parse_count(
              name, value.substr(0, comma), std::numeric_limits<unsigned>::max())));
          if (comma == std::string_view::npos) break;
          value.remove_prefix(comma + 1);
        }
        return true;
      });
  if (threads_list.empty() || threads_list.front() != 1) {
    threads_list.insert(threads_list.begin(), 1);  // serial rung anchors the curve
  }

  const unsigned hw = util::hardware_threads();
  std::vector<std::pair<std::string, double>> numbers = {
      {"hardware_threads", static_cast<double>(hw)}};
  if (hw <= 1) {
    // Fail loudly instead of publishing noise: with one hardware thread every
    // "parallel" rung is the serial path plus scheduler jitter, and a
    // committed speedup number from such a box would be fiction.
    std::cerr << "parallel_baseline: this host has " << hw
              << " hardware thread(s); a thread-scaling curve measured here is "
                 "meaningless.\nRefusing to measure — rerun on a multicore host "
                 "(see docs/performance.md).\n";
    bench::finish_run("bench/parallel_baseline", options, numbers,
                      {{"error", "single-core host: thread-scaling sweep refused"}});
    return 1;
  }

  bool all_identical = true;
  for (const double scale : {0.25, 1.0}) {
    std::ostringstream label;
    label << "scale" << scale << "_";
    const auto config = model::standard_fleet_config(scale, options.seed);

    util::set_thread_count(1);
    const auto serial_reference = core::simulate_and_analyze(config);
    const auto events = serial_reference.dataset.events().size();
    numbers.emplace_back(label.str() + "events", static_cast<double>(events));
    std::cout << "scale " << scale << ": " << events << " events\n";

    double serial_seconds = 0.0;
    for (const unsigned t : threads_list) {
      util::set_thread_count(t);
      std::vector<core::StageSeconds> stages(static_cast<std::size_t>(options.repeat));
      const auto best = bench::min_of_n(options.repeat, [&](int run) {
        auto result = core::simulate_and_analyze(config);
        stages[static_cast<std::size_t>(run)] = result.pipeline.stage_seconds;
        return result;  // freed after the clock stops
      });
      const bool identical =
          t == 1 || datasets_equal(serial_reference, core::simulate_and_analyze(config));
      all_identical = all_identical && identical;
      if (t == 1) {
        serial_seconds = best.seconds;
        const auto& st = stages[static_cast<std::size_t>(best.run)];
        std::cout << "  serial stages: simulate " << st.simulate << " s, snapshot "
                  << st.snapshot << " s, emit " << st.emit << " s, parse " << st.parse
                  << " s, classify " << st.classify << " s, sort " << st.sort << " s\n";
        for (const auto& [stage, seconds] :
             {std::pair{"simulate", st.simulate}, std::pair{"snapshot", st.snapshot},
              std::pair{"emit", st.emit},
              std::pair{"parse", st.parse}, std::pair{"classify", st.classify},
              std::pair{"sort", st.sort}}) {
          numbers.emplace_back(label.str() + "serial_" + stage + "_seconds", seconds);
        }
      }
      const std::string rung = label.str() + "t" + std::to_string(t) + "_";
      numbers.emplace_back(rung + "seconds", best.seconds);
      numbers.emplace_back(rung + "speedup", serial_seconds / best.seconds);
      numbers.emplace_back(rung + "identical", identical ? 1.0 : 0.0);
      std::cout << "  " << t << " thread(s): " << best.seconds << " s (speedup "
                << serial_seconds / best.seconds << "x), "
                << (identical ? "bit-identical" : "MISMATCH") << "\n";
    }
  }
  util::set_thread_count(0);

  numbers.emplace_back("peak_rss_bytes", static_cast<double>(util::peak_rss_bytes()));
  bench::finish_run("bench/parallel_baseline", options, numbers);
  return all_identical ? 0 : 1;
}
