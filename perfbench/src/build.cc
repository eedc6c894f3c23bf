// Workload `build`: the monolithic `store build` path at full scale —
// simulate the fleet, round-trip it through the text logs and snapshot,
// and write one STORCOL1 file. The only write-side workload and the only
// one that runs the log layer and the store writer.
#include <algorithm>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "bench.h"
#include "core/analysis_render.h"
#include "core/pipeline.h"
#include "core/store_bridge.h"
#include "log/classifier.h"
#include "log/parser.h"
#include "log/snapshot.h"
#include "model/fleet_config.h"
#include "obs/obs.h"
#include "sim/log_bridge.h"
#include "sim/simulator.h"
#include "store/reader.h"

namespace perfbench {

namespace ss = storsubsim;

namespace {

/// Same pre-sizing the pipeline gives its log buffers.
constexpr std::size_t kLogBytesPerFailure = 768;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// Everything one build leaves in memory, kept for the output checks.
struct Build {
  std::optional<ss::sim::FleetSimulation> simulation;
  std::optional<ss::core::SimulationDataset> run;
  ss::store::Error error;
};

/// One full build, from config to a closed store file. The calls are
/// sim::simulate_fleet's body (Fleet::build, Simulator::run) followed by
/// core::dataset_via_logs and core::write_store, so each gets its own span.
void build_store(double scale, std::uint64_t seed, const std::string& path, Build& b) {
  Span root("build.op", "bench");
  const auto config = ss::model::standard_fleet_config(scale, seed);
  {
    Span span("model.fleet_build", "model");
    b.simulation.emplace(ss::sim::FleetSimulation{ss::model::Fleet::build(config), {}});
  }
  {
    Span span("sim.run", "sim");
    ss::sim::Simulator simulator(b.simulation->fleet, ss::sim::SimParams::standard());
    b.simulation->result = simulator.run();
  }
  ss::core::PipelineStats pipeline;
  std::optional<ss::core::Dataset> dataset;
  {
    Span span("core.dataset_via_logs", "core");
    dataset.emplace(ss::core::dataset_via_logs(b.simulation->fleet, b.simulation->result,
                                               &pipeline));
  }
  b.run.emplace(ss::core::SimulationDataset{std::move(*dataset),
                                            b.simulation->result.counters, pipeline});
  Span span("core.write_store", "store");
  b.error = ss::core::write_store(path, *b.run, seed, scale);
}

/// Failures ordered by (time, disk, type), the classifier's output order.
std::vector<std::tuple<double, std::uint32_t, int>> failure_keys(
    std::span<const ss::log::ClassifiedFailure> failures) {
  std::vector<std::tuple<double, std::uint32_t, int>> keys;
  keys.reserve(failures.size());
  for (const auto& f : failures) {
    keys.emplace_back(f.time, f.disk.value(), static_cast<int>(f.type));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Traced run only: the log layer's five stages called serially, once over
/// the whole fleet, so each has a self time of its own. Returns false when
/// the serial round trip disagrees with the pipeline's dataset.
bool log_probe(const Build& b, std::vector<std::pair<std::string, double>>& counts) {
  const auto& fleet = b.simulation->fleet;
  const auto& failures = b.simulation->result.failures;
  Span root("build.log_probe", "bench");
  ss::log::LineWriter snapshot;
  {
    Span span("log.snapshot_write", "log");
    ss::log::write_snapshot(snapshot, fleet);
  }
  std::optional<ss::log::SnapshotParseResult> parsed;
  {
    Span span("log.snapshot_parse", "log");
    parsed.emplace(ss::log::parse_snapshot(snapshot.view()));
  }
  ss::log::LineWriter text(failures.size() * kLogBytesPerFailure);
  std::size_t lines = 0;
  {
    Span span("log.emit", "log");
    lines = ss::sim::write_failure_logs(text, fleet, failures);
  }
  std::vector<ss::log::LogView> views;
  {
    Span span("log.parse", "log");
    static_cast<void>(ss::log::parse_text(text.view(), views));
  }
  std::vector<ss::log::ClassifiedFailure> classified;
  {
    Span span("log.classify", "log");
    classified = ss::log::classify(std::span<const ss::log::LogView>(views));
  }
  counts.emplace_back("log.lines", static_cast<double>(lines));
  counts.emplace_back("log.bytes", static_cast<double>(text.size()));
  counts.emplace_back("log.snapshot_bytes", static_cast<double>(snapshot.size()));
  const auto& dataset = b.run->dataset;
  return parsed->ok() &&
         parsed->inventory.disks.size() == dataset.inventory().disks.size() &&
         failure_keys(classified) == failure_keys(dataset.events());
}

}  // namespace

Result run_build(const Options& opt) {
  Result result;
  const std::string path = opt.dir + "/build.store";

  // Set-up: small builds that start the thread pool and touch the code and
  // allocator paths, so the first measured build pays no one-off costs.
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now();
    Build warm;
    build_store(0.02, opt.seed, path, warm);
    if (!warm.error.ok()) throw std::runtime_error("warm-up build: " + warm.error.describe());
    setups.push_back(now() - t0);
  }

  std::string reference;  // the first repeat's bytes
  std::vector<double> pool_tasks;
  std::vector<std::pair<std::string, double>> probe_counts;
  bool probe_ok = true;
  bool probed = false;
  std::vector<double> sim_failures;
  auto op = [&]() -> OpOutcome {
    Build b;
    const auto tasks0 = obs_value("pool.tasks_submitted");
    const double c0 = cpu_seconds();
    const double t0 = now();
    build_store(opt.scale, opt.seed, path, b);
    OpOutcome out;
    out.wall = now() - t0;
    out.cpu = cpu_seconds() - c0;
    pool_tasks.push_back(static_cast<double>(obs_value("pool.tasks_submitted") - tasks0));
    sim_failures.push_back(static_cast<double>(b.simulation->result.failures.size()));

    // Checks: byte-identical to the first repeat, and the re-opened store
    // renders the in-memory dataset's AFR breakdown.
    const std::string bytes = read_file(path);
    if (reference.empty()) reference = bytes;
    ss::store::EventStore reopened;
    out.ok = b.error.ok() && !bytes.empty() && bytes == reference &&
             reopened.open(path).ok() &&
             ss::core::render_afr_by_class(reopened, false) ==
                 ss::core::render_afr_by_class(b.run->dataset, false);
    if (tracing() && !probed) {
      probed = true;
      probe_ok = log_probe(b, probe_counts);
      probe_counts.emplace_back(
          "store.bytes_per_event",
          static_cast<double>(bytes.size()) /
              static_cast<double>(std::max<std::size_t>(b.run->dataset.events().size(), 1)));
    }
    return out;
  };

  if (!opt.trace) {
    const OpSamples ops = measure_ops(opt.seconds, 1, result, op);
    report_end_to_end(result, median(setups), ops);
    return result;
  }

  ss::obs::registry().reset();
  const double overhead = measure_traced(opt.seconds, result, op);
  result.count(probe_ok);
  const auto spans = collected_spans();
  const auto obs_spans = collected_obs_spans();
  if (!write_chrome_trace(opt.dir + "/trace.json", spans, obs_spans)) {
    throw std::runtime_error("cannot write the trace");
  }

  // store.build_image is the program's own obs span inside core::write_store;
  // the rest of the write_store span is encoding the meta block and the
  // file write.
  std::vector<double> image;
  std::vector<double> write_file;
  for (const auto& s : spans) {
    if (std::string_view(s.name) != "core.write_store") continue;
    for (const auto& o : obs_spans) {
      if (o.name == "store.build_image" && o.start >= s.start && o.end <= s.end) {
        image.push_back(o.end - o.start);
        write_file.push_back((s.end - s.start) - (o.end - o.start));
      }
    }
  }

  const double via_logs = median_self(spans, "core.dataset_via_logs");
  double serial_log = 0.0;
  for (const char* stage : {"log.snapshot_write", "log.snapshot_parse", "log.emit",
                            "log.parse", "log.classify"}) {
    const double s = median_self(spans, stage);
    result.metric(std::string(stage) + "_s", s, "s");
    serial_log += s;
  }
  result.metric("model.fleet_build_s", median_self(spans, "model.fleet_build"), "s");
  result.metric("sim.run_s", median_self(spans, "sim.run"), "s");
  result.metric("sim.failures", median(sim_failures), "count");
  result.metric("core.dataset_via_logs_s", via_logs, "s");
  result.metric("core.via_logs_speedup", via_logs > 0.0 ? serial_log / via_logs : 0.0, "x");
  result.metric("store.build_image_s", median(image), "s");
  result.metric("store.write_file_s", median(write_file), "s");
  for (const auto& [name, value] : probe_counts) {
    result.metric(name, value, name == "log.lines" ? "count" : "bytes");
  }
  result.metric("util.pool_tasks", median(pool_tasks), "count");
  result.metric("util.pool_queue_depth_max",
                static_cast<double>(obs_value("pool.queue_depth_max")), "count");
  result.metric("untraced_frac", untraced_fraction(spans, "build.op"), "ratio");
  result.metric("obs.trace_overhead_frac", overhead, "ratio");
  return result;
}

}  // namespace perfbench
