// Shared declarations of the perfbench program: run options, the result a
// run reports, sample statistics, and the benchmark's own span tracer.
//
// One run measures one workload. With tracing off it reports the end-to-end
// metrics; with tracing on it wraps every call into a library layer in a
// benchmark span, turns on the program's own obs spans, and derives the
// per-layer metrics from both (README.md in this directory lists them).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 20080226;
  double scale = 0.0;  ///< 0 = the workload's default
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;
  std::string dir;  ///< work directory: corpus, socket, trace output
};

/// What one run reports. attempted/failed count operations; an operation
/// fails when any of its output checks trips.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, std::make_pair(value, unit));
  }
  /// Counts one operation; `ok` false counts it failed.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// --- set-up and measurement -------------------------------------------------

/// How many times each run repeats its set-up; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Builds the corpus a workload reads into opt.dir — analyze: a single-file
/// store (the monolithic `store build` path); serve: a 4-shard directory.
/// Returns the wall seconds of the build; throws std::runtime_error on
/// failure.
double build_store_corpus(const Options& opt);
double build_shards_corpus(const Options& opt);

/// Runs one workload; returns its result. Throws on a set-up failure.
Result run_build(const Options& opt);
Result run_analyze(const Options& opt);
Result run_serve(const Options& opt);
Result run_replicate(const Options& opt);

/// Default fleet scale of each workload.
double default_scale(const std::string& workload);

/// The corpus paths inside the work directory.
std::string store_path(const Options& opt);
std::string shards_path(const Options& opt);

// --- clocks and samples -----------------------------------------------------

/// Seconds on the program's monotonic clock (obs::now_seconds), so benchmark
/// spans and obs spans share one time base.
double now();
/// User + system CPU seconds of the whole process.
double cpu_seconds();
/// Peak resident set size of the process (VmHWM) in MiB.
double peak_rss_mb();

/// Linearly interpolated percentile, q in [0, 1]; 0 for no samples.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// The highest percentile with at least ten samples beyond it, capped at
/// 0.99 and never below the median.
double tail_quantile(std::size_t samples);

/// One measured operation: the wall and CPU seconds of its timed window and
/// whether every output check passed.
struct OpOutcome {
  double wall = 0.0;
  double cpu = 0.0;
  bool ok = false;
};

/// Timed operations of a workload.
struct OpSamples {
  std::vector<double> wall;
  double cpu = 0.0;
  std::uint64_t units = 0;  ///< work items completed (builds, passes, requests, replicates)
  double window = 0.0;      ///< wall seconds the units were completed in
};

/// Reports the end-to-end metrics every workload shares.
void report_end_to_end(Result& result, double setup_s, const OpSamples& ops);

/// Runs `op` until `seconds` have passed (at least once), counting each
/// outcome into `result`. `units_per_op` work items per successful op; the
/// window is the summed operation time.
OpSamples measure_ops(double seconds, std::uint64_t units_per_op, Result& result,
                      const std::function<OpOutcome()>& op);

/// Traced runs of a sequential workload: alternates untraced and traced
/// operations until `seconds` have passed (at least one of each), counting
/// each outcome, and returns obs.trace_overhead_frac — the traced median
/// wall time over the untraced one, minus 1. The traced operations must
/// open a root span named `<workload>.op`.
double measure_traced(double seconds, Result& result,
                      const std::function<OpOutcome()>& op);

// --- tracing ------------------------------------------------------------------

/// A finished benchmark span. Spans nest per thread; a span opened with no
/// open span on its thread is the root of a new operation, and every span
/// beneath it carries that operation's id.
struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  double start = 0.0;
  double end = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;
  std::uint32_t tid = 0;
};

/// Turns benchmark spans and the program's obs spans on or off together.
void set_tracing(bool on);
bool tracing();
/// Every benchmark span recorded so far, in no particular order. Call only
/// when no other thread is recording spans.
std::vector<SpanRecord> collected_spans();

/// RAII benchmark span around one call into a layer; records nothing while
/// tracing is off. `name` and `layer` must be string literals.
class Span {
 public:
  Span(const char* name, const char* layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
};

/// One program obs span, read back from the obs trace buffer.
struct ObsSpan {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::uint32_t tid = 0;
};

/// The program's obs spans recorded while tracing was on.
std::vector<ObsSpan> collected_obs_spans();

/// Median self time (duration minus the child spans'), in seconds, of the
/// benchmark spans named `name`; 0 when there are none.
double median_self(const std::vector<SpanRecord>& spans, const char* name);

/// Share of the wall time of the root spans named `root` that no child span
/// covers.
double untraced_fraction(const std::vector<SpanRecord>& spans, const char* root);

/// Writes benchmark and obs spans as one Chrome trace_event JSON document,
/// in the format obs already writes, plus each span's id, parent and
/// operation in "args". Obs spans get the innermost enclosing benchmark span
/// as parent. Returns false on I/O failure.
bool write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans,
                        const std::vector<ObsSpan>& obs_spans);

/// Value of an obs counter or gauge now (0 when not registered).
std::uint64_t obs_value(const char* name);

}  // namespace perfbench
