// Workload `analyze`: repeated cold passes over a prebuilt full-scale
// single-file store. Every pass opens the store (full CRC validation), runs
// the five report renderers and a grouped query through the EventStore arm,
// and closes it — the cost `storsubsim analyze --input` pays per call. It
// runs no sim or log code.
#include <array>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "core/analysis_render.h"
#include "core/pipeline.h"
#include "core/source.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "obs/obs.h"
#include "store/query.h"
#include "store/reader.h"

namespace perfbench {

namespace ss = storsubsim;

namespace {

using Reports = std::array<std::string, 6>;

ss::store::Query grouped_query() {
  ss::store::Query query;
  query.group_by = ss::store::Query::GroupBy::kSystemClass;
  return query;
}

/// One cold pass; false when the store does not open.
bool analyze_pass(const std::string& path, Reports& out) {
  Span root("analyze.op", "bench");
  std::optional<ss::store::EventStore> store;
  store.emplace();
  {
    Span span("store.open", "store");
    if (!store->open(path).ok()) return false;
  }
  const ss::core::Source source(*store);
  {
    Span span("core.afr", "core");
    out[0] = ss::core::render_afr_total(source, false);
  }
  {
    Span span("core.afr_by_class", "core");
    out[1] = ss::core::render_afr_by_class(source, false);
  }
  {
    Span span("core.tbf", "core");
    out[2] = ss::core::render_tbf(source, false);
  }
  {
    Span span("core.correlation", "core");
    out[3] = ss::core::render_correlation(source, false);
  }
  {
    Span span("core.lifetime", "core");
    out[4] = ss::core::render_lifetime(source, false);
  }
  std::optional<ss::store::QueryResult> result;
  {
    Span span("store.query", "store");
    result.emplace(ss::store::run_query(*store, grouped_query()));
  }
  {
    Span span("core.render_query", "core");
    out[5] = ss::core::render_query_result(*result, false);
  }
  Span span("store.close", "store");
  store.reset();
  return true;
}

}  // namespace

double build_store_corpus(const Options& opt) {
  const double t0 = now();
  const auto run = ss::core::simulate_and_analyze(
      ss::model::standard_fleet_config(opt.scale, opt.seed));
  const auto err = ss::core::write_store(store_path(opt), run, opt.seed, opt.scale);
  if (!err.ok()) throw std::runtime_error("store build: " + err.describe());
  return now() - t0;
}

Result run_analyze(const Options& opt) {
  Result result;
  const std::string path = store_path(opt);

  // The answers every pass must reproduce: the Dataset arm's rendering of
  // the same store (core::dataset_from_store). The grouped query has no
  // Dataset arm; its answer is this first open's.
  Reports expected;
  double bytes_per_event = 0.0;
  {
    ss::store::EventStore store;
    if (const auto err = store.open(path); !err.ok()) {
      throw std::runtime_error("cannot open the corpus: " + err.describe());
    }
    const ss::core::Dataset dataset = ss::core::dataset_from_store(store);
    expected = {ss::core::render_afr_total(dataset, false),
                ss::core::render_afr_by_class(dataset, false),
                ss::core::render_tbf(dataset, false),
                ss::core::render_correlation(dataset, false),
                ss::core::render_lifetime(dataset, false),
                ss::core::render_query_result(ss::store::run_query(store, grouped_query()),
                                              false)};
    bytes_per_event = static_cast<double>(std::filesystem::file_size(path)) /
                      static_cast<double>(std::max<std::uint64_t>(store.event_count(), 1));
  }

  struct Counters {
    std::vector<double> crc_bytes, rows, pool_tasks;
    double pruned = 0.0, scanned = 0.0;
  } counters;
  auto op = [&]() -> OpOutcome {
    const auto crc0 = obs_value("store.open.crc_bytes");
    const auto rows0 = obs_value("store.decode.rows");
    const auto tasks0 = obs_value("pool.tasks_submitted");
    const auto pruned0 = obs_value("store.query.blocks_pruned");
    const auto scanned0 = obs_value("store.query.blocks_scanned");
    Reports got;
    const double c0 = cpu_seconds();
    const double t0 = now();
    const bool opened = analyze_pass(path, got);
    OpOutcome out;
    out.wall = now() - t0;
    out.cpu = cpu_seconds() - c0;
    out.ok = opened && got == expected;
    counters.crc_bytes.push_back(static_cast<double>(obs_value("store.open.crc_bytes") - crc0));
    counters.rows.push_back(static_cast<double>(obs_value("store.decode.rows") - rows0));
    counters.pool_tasks.push_back(
        static_cast<double>(obs_value("pool.tasks_submitted") - tasks0));
    counters.pruned += static_cast<double>(obs_value("store.query.blocks_pruned") - pruned0);
    counters.scanned += static_cast<double>(obs_value("store.query.blocks_scanned") - scanned0);
    return out;
  };

  if (!opt.trace) {
    const OpSamples ops = measure_ops(opt.seconds, 1, result, op);
    // No in-process set-up: every pass opens the corpus cold.
    report_end_to_end(result, 0.0, ops);
    return result;
  }

  ss::obs::registry().reset();
  const double overhead = measure_traced(opt.seconds, result, op);
  const auto spans = collected_spans();
  if (!write_chrome_trace(opt.dir + "/trace.json", spans, collected_obs_spans())) {
    throw std::runtime_error("cannot write the trace");
  }
  result.metric("store.open_s", median_self(spans, "store.open"), "s");
  result.metric("store.open.crc_bytes", median(counters.crc_bytes), "bytes");
  result.metric("store.decode.rows", median(counters.rows), "count");
  result.metric("store.bytes_per_event", bytes_per_event, "bytes");
  result.metric("core.afr_s", median_self(spans, "core.afr"), "s");
  result.metric("core.afr_by_class_s", median_self(spans, "core.afr_by_class"), "s");
  result.metric("core.tbf_s", median_self(spans, "core.tbf"), "s");
  result.metric("core.correlation_s", median_self(spans, "core.correlation"), "s");
  result.metric("core.lifetime_s", median_self(spans, "core.lifetime"), "s");
  result.metric("store.query_s", median_self(spans, "store.query"), "s");
  const double blocks = counters.pruned + counters.scanned;
  result.metric("store.query.prune_frac", blocks > 0.0 ? counters.pruned / blocks : 0.0,
                "ratio");
  result.metric("util.pool_tasks", median(counters.pool_tasks), "count");
  result.metric("util.pool_queue_depth_max",
                static_cast<double>(obs_value("pool.queue_depth_max")), "count");
  result.metric("untraced_frac", untraced_fraction(spans, "analyze.op"), "ratio");
  result.metric("obs.trace_overhead_frac", overhead, "ratio");
  return result;
}

}  // namespace perfbench
