// Emit+parse throughput of the text-log hot path.
//
// Measures the text-log round trip (emit -> parse -> classify) over one
// simulated failure set, single-threaded: `log::LineWriter` buffered emission,
// `log::parse_text` view-based parsing over the retained buffer, and
// classification on interned ids. Every line must parse and classification
// must recover as many failures as were simulated (the program exits nonzero
// otherwise). The exact bytes of the format, and the failure-by-failure match
// of the classified failures to the simulated ones, are pinned at full scale
// by GoldenFormat.FullFleetLogAndSnapshotDigest
// (tests/log/emitter_parser_test.cc).
//
//   pipeline_throughput [--scale=<f>] [--seed=<n>] [--repeat=<n>]
//                       [--manifest=<path>] [--metrics] [--trace=<path>]
//
// --repeat keeps the fastest of n runs per stage (min-of-N). --metrics and
// --trace turn the full observability stack on; tools/run_checks.sh runs the
// harness with and without them and gates the overhead at <2%. The one output
// is the run manifest (default BENCH_pipeline.json).
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "log/classifier.h"
#include "log/line_writer.h"
#include "log/parser.h"
#include "model/fleet_config.h"
#include "sim/log_bridge.h"
#include "sim/simulator.h"
#include "util/parallel.h"

int main(int argc, char** argv) {
  using namespace storsubsim;
  const auto options = bench::parse_options(argc, argv, "BENCH_pipeline.json");

  const auto simulation =
      sim::simulate_fleet(model::standard_fleet_config(options.scale, options.seed));
  const auto& fleet = simulation.fleet;
  const auto& failures = simulation.result.failures;
  std::cout << "scale " << options.scale << ": " << failures.size()
            << " failures simulated\n";

  util::set_thread_count(1);  // the log stages are measured single-threaded
  // Each timed run builds its own buffer, as the pipeline does; the first
  // run's result is kept for the next stage.
  std::string text;
  std::size_t lines = 0;
  const double emit_seconds = bench::min_of_n(options.repeat, [&](int run) {
                                log::LineWriter writer(failures.size() * 768);
                                lines = sim::write_failure_logs(writer, fleet, failures);
                                if (run == 0) text = writer.take();
                                return writer;
                              }).seconds;

  std::vector<log::LogView> views;
  log::ParseStats stats;
  const double parse_seconds = bench::min_of_n(options.repeat, [&](int run) {
                                 std::vector<log::LogView> parsed;
                                 stats = log::parse_text(text, parsed);
                                 if (run == 0) views.swap(parsed);
                                 return parsed;
                               }).seconds;

  std::vector<log::ClassifiedFailure> classified;
  const double classify_seconds = bench::min_of_n(options.repeat, [&](int run) {
                                    auto result = log::classify(
                                        std::span<const log::LogView>(views),
                                        log::ClassifierOptions{});
                                    if (run == 0) classified.swap(result);
                                    return result;
                                  }).seconds;

  const bool round_trip = stats.lines_parsed == lines && classified.size() == failures.size();
  const double emit_parse = emit_seconds + parse_seconds;
  std::cout << "log lines: " << lines << " (" << text.size() << " bytes)\n"
            << "emit " << emit_seconds << " s, parse " << parse_seconds << " s, classify "
            << classify_seconds << " s  (" << static_cast<double>(lines) / emit_parse
            << " lines/s emit+parse)\n"
            << "round trip " << (round_trip ? "clean" : "MISMATCH") << ": "
            << stats.lines_parsed << " lines parsed, " << classified.size()
            << " failures classified\n";

  bench::finish_run("bench/pipeline_throughput", options,
                    {{"failures", static_cast<double>(failures.size())},
                     {"log_lines", static_cast<double>(lines)},
                     {"log_bytes", static_cast<double>(text.size())},
                     {"emit_seconds", emit_seconds},
                     {"parse_seconds", parse_seconds},
                     {"classify_seconds", classify_seconds},
                     {"emit_parse_lines_per_second", static_cast<double>(lines) / emit_parse},
                     {"round_trip_clean", round_trip ? 1.0 : 0.0}});
  return round_trip ? 0 : 1;
}
