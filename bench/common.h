// Shared infrastructure for the bench programs.
//
// The 13 exhibit programs each regenerate one paper exhibit (Table 1,
// Figures 4-10, and the extensions): they print the exhibit's rows/series at
// the configured scale next to the paper's reference values, and nothing
// else. The six perf harnesses (parallel_baseline, pipeline_throughput,
// store_bench, decode_bench, replicate_bench, serve_bench) share one shape:
// obs::now_seconds() timing through min_of_n(), and one output file — the
// obs::RunManifest finish_run() writes, whose flat `numbers` carry every
// measurement and gate result.
//
// Every program parses its flags through parse_options():
//   --scale=<float>        fleet scale (default 1.0 = the paper's full
//                          ~39k-system fleet)
//   --seed=<int>           simulation seed
//   --threads=<int>        worker threads for the simulator / log pipeline /
//                          store writer (default: STORSIM_THREADS env, else
//                          hardware concurrency; results are identical for
//                          any value — see docs/performance.md)
//   --store=<path>         load the dataset from a prebuilt columnar store
//                          (see docs/STORE.md) instead of simulating;
//                          --scale/--seed are ignored for the report
//   --csv                  print tables as CSV instead of aligned text
//   --metrics              print the obs metric snapshot to stderr at exit
//   --trace=<path>         write a Chrome trace_event JSON of recorded spans
//   --manifest=<path>      write a run-manifest JSON (provenance + numbers +
//                          metrics); the perf harnesses always write one,
//                          defaulting to BENCH_<name>.json
//   --repeat=<int>         min-of-N runs per timed stage (perf harnesses)
// plus the harness's own local flags. Any other argument prints
// "unknown flag '<arg>'" and exits 2; a malformed numeric value (not a
// number, negative, non-finite, or out of range) prints
// "invalid --FLAG value 'V'" and exits 2. A flag above that a program does
// not use (--csv on a perf harness, --store on a simulation-only exhibit) is
// accepted and ignored.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/afr.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "obs/span.h"

namespace storsubsim::bench {

struct Options {
  double scale = 1.0;
  std::uint64_t seed = 20080226;
  unsigned threads = 0;  ///< 0 = auto (env var / hardware concurrency)
  std::string store;     ///< non-empty: mmap this store file, skip simulation
  bool csv = false;
  bool metrics = false;   ///< print the metric snapshot to stderr at exit
  std::string trace;      ///< non-empty: write the Chrome trace here
  std::string manifest;   ///< non-empty: write the run manifest here
  int repeat = 3;         ///< min-of-N runs per timed stage (>= 1; perf harnesses)
};

/// A harness-local `--name=value` flag: returns false for a name the harness
/// does not take.
using LocalFlag = std::function<bool(std::string_view name, std::string_view value)>;

/// Parses argv: every Options flag, then `--name=value` flags the harness
/// takes through `local`; anything else prints "unknown flag" and exits 2.
/// The manifest defaults to `default_manifest` (empty: none). Tracing is
/// enabled immediately when --trace is present, so spans recorded during the
/// run are captured.
Options parse_options(int argc, char** argv, std::string default_manifest = {},
                      const LocalFlag& local = {});

/// Numeric flag values: the whole of `text` must parse (std::from_chars) to a
/// non-negative integer <= max / a finite non-negative real, or the process
/// prints "invalid --<flag> value '<text>'" and exits 2.
std::uint64_t parse_count(std::string_view flag, std::string_view text,
                          std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
double parse_real(std::string_view flag, std::string_view text);

/// The fastest of `repeat` (at least one) timed calls fn(run): its wall
/// seconds and which run it was, so callers can keep that run's side results.
/// Whatever fn returns (the buffer or dataset the run built) is destroyed
/// after the clock stops, so freeing it is not part of the measurement.
struct MinOfN {
  double seconds = 0.0;
  int run = 0;
};
template <typename Fn>
MinOfN min_of_n(int repeat, Fn&& fn) {
  MinOfN best;
  for (int run = 0; run < std::max(repeat, 1); ++run) {
    double seconds = 0.0;
    const double start = obs::now_seconds();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&, int>>) {
      fn(run);
      seconds = obs::now_seconds() - start;
    } else {
      [[maybe_unused]] const auto built = fn(run);
      seconds = obs::now_seconds() - start;
    }
    if (run == 0 || seconds < best.seconds) best = {seconds, run};
  }
  return best;
}

/// A path under the temp directory for a store the harness builds for its
/// own use; the file (or shard directory) is removed at exit.
std::string scratch_path(const std::string& name);

/// The store a harness reads: --store when given, else the standard fleet at
/// (scale, seed) simulated and written to a scratch_path().
std::string input_store(const Options& options, const std::string& name);

/// Writes the run artifacts the options ask for: the trace JSON, the run
/// manifest (provenance + named numbers + info strings + metric snapshot),
/// and the --metrics stderr dump. Call once at the end of main; `numbers`
/// carries the harness's measurements and gate results (wall times,
/// speedups, mismatch counts, ...). The manifest's `info.store` is the
/// --store path only when the run read it through standard_dataset() or
/// input_store(); a harness that uses --store otherwise passes it in `info`.
void finish_run(const std::string& tool, const Options& options,
                const std::vector<std::pair<std::string, double>>& numbers = {},
                const std::vector<std::pair<std::string, std::string>>& info = {});

/// The standard fleet at (scale, seed), simulated through the text-log round
/// trip so the report measures the same end-to-end path the paper's analysis
/// took; or, with --store, the dataset rehydrated from that store.
core::SimulationDataset standard_dataset(const Options& options);

/// Prints the exhibit banner: what is being reproduced, fleet scale, and the
/// dataset's headline statistics.
void print_banner(std::ostream& out, const std::string& exhibit, const Options& options,
                  const core::SimulationDataset& dataset);

/// Renders a table honoring --csv.
void print_table(std::ostream& out, const core::TextTable& table, const Options& options);

/// Formats an AFR breakdown row: total + per-type percentages.
std::string afr_cell(const core::AfrBreakdown& b, model::FailureType type);

}  // namespace storsubsim::bench
