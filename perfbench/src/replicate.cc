// Workload `replicate`: fixed-budget replication runs — 16 replicates of a
// 0.2-scale fleet with early stopping off. Many small fleets run in
// parallel, one per pool task, through core::dataset_in_memory (no log
// layer) and the Dataset arm of the analyses. The only workload that runs
// the replicate layer.
#include <future>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "core/pipeline.h"
#include "model/fleet_config.h"
#include "obs/obs.h"
#include "replicate/replicate.h"
#include "replicate/table.h"
#include "sim/simulator.h"
#include "stats/rng.h"
#include "util/parallel.h"

namespace perfbench {

namespace ss = storsubsim;

namespace {

constexpr std::size_t kReplicates = 16;

ss::replicate::ReplicateOptions replicate_options(double scale, std::uint64_t seed,
                                                  std::size_t replicates) {
  ss::replicate::ReplicateOptions options;
  options.scale = scale;
  options.seed = seed;
  options.max_replicates = replicates;
  options.ci_rel = 0.0;
  return options;
}

/// Replicate 0 of run_replication, call by call, on a worker of a one-thread
/// pool: inside a pool worker the library's parallel loops run inline, as
/// they do inside run_replication, so this is one replicate's serial cost.
/// Returns its headline statistics and failure count.
std::pair<std::vector<double>, std::size_t> replicate_probe(double scale,
                                                            std::uint64_t seed) {
  using Outcome = std::pair<std::vector<double>, std::size_t>;
  auto body = [scale, seed]() -> Outcome {
    Span root("replicate.probe", "bench");
    ss::stats::Rng rep = ss::stats::make_root_rng(seed).stream(ss::replicate::kSeedStream, 0);
    const std::uint64_t rep_seed = rep();
    const auto config = ss::model::standard_fleet_config(scale, rep_seed);
    std::optional<ss::sim::FleetSimulation> simulation;
    {
      Span span("model.fleet_build", "model");
      simulation.emplace(ss::sim::FleetSimulation{ss::model::Fleet::build(config), {}});
    }
    {
      Span span("sim.run", "sim");
      ss::sim::Simulator simulator(simulation->fleet, ss::sim::SimParams::standard());
      simulation->result = simulator.run();
    }
    std::optional<ss::core::Dataset> dataset;
    {
      Span span("core.dataset_in_memory", "core");
      dataset.emplace(ss::core::dataset_in_memory(simulation->fleet, simulation->result));
    }
    Span span("replicate.headline_statistics", "replicate");
    return {ss::replicate::headline_statistics(*dataset), simulation->result.failures.size()};
  };
  std::promise<Outcome> done;
  auto future = done.get_future();
  {
    ss::util::ThreadPool pool(1);
    pool.submit([&done, &body] {
      try {
        done.set_value(body());
      } catch (...) {
        done.set_exception(std::current_exception());
      }
    });
  }
  return future.get();
}

}  // namespace

Result run_replicate(const Options& opt) {
  Result result;

  // Set-up: a small replication that starts the pool and touches the code
  // paths, so the first measured run pays no one-off costs.
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now();
    static_cast<void>(ss::replicate::run_replication(
        replicate_options(0.02, opt.seed, opt.threads)));
    setups.push_back(now() - t0);
  }

  const auto options = replicate_options(opt.scale, opt.seed, kReplicates);
  std::string reference;  // the first run's STORREP1 bytes
  std::optional<ss::replicate::ReplicateSummary> first;
  std::vector<double> pool_tasks;
  auto op = [&]() -> OpOutcome {
    const auto tasks0 = obs_value("pool.tasks_submitted");
    const double c0 = cpu_seconds();
    const double t0 = now();
    std::optional<ss::replicate::ReplicateSummary> summary;
    {
      Span root("replicate.op", "bench");
      Span span("replicate.run_replication", "replicate");
      summary.emplace(ss::replicate::run_replication(options));
    }
    OpOutcome out;
    out.wall = now() - t0;
    out.cpu = cpu_seconds() - c0;
    pool_tasks.push_back(static_cast<double>(obs_value("pool.tasks_submitted") - tasks0));
    const std::string bytes = ss::replicate::encode_table(*summary);
    if (reference.empty()) {
      reference = bytes;
      first = summary;
    }
    out.ok = summary->replicates == kReplicates && bytes == reference;
    return out;
  };

  if (!opt.trace) {
    const OpSamples ops = measure_ops(opt.seconds, kReplicates, result, op);
    report_end_to_end(result, median(setups), ops);
    return result;
  }

  ss::obs::registry().reset();
  const double overhead = measure_traced(opt.seconds, result, op);
  set_tracing(true);
  const auto [probe_stats, failures] = replicate_probe(opt.scale, opt.seed);
  set_tracing(false);
  // The probe must reproduce replicate 0 of the table bit for bit.
  bool probe_ok = probe_stats.size() == first->values.size();
  for (std::size_t s = 0; probe_ok && s < probe_stats.size(); ++s) {
    probe_ok = probe_stats[s] == first->values[s][0];
  }
  result.count(probe_ok);

  const auto spans = collected_spans();
  if (!write_chrome_trace(opt.dir + "/trace.json", spans, collected_obs_spans())) {
    throw std::runtime_error("cannot write the trace");
  }
  double serial = 0.0;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "replicate.probe") serial = s.end - s.start;
  }
  const double wall = median_self(spans, "replicate.run_replication");
  result.metric("model.fleet_build_s", median_self(spans, "model.fleet_build"), "s");
  result.metric("sim.run_s", median_self(spans, "sim.run"), "s");
  result.metric("sim.failures", static_cast<double>(failures), "count");
  result.metric("core.dataset_in_memory_s", median_self(spans, "core.dataset_in_memory"), "s");
  result.metric("replicate.headline_statistics_s",
                median_self(spans, "replicate.headline_statistics"), "s");
  result.metric("replicate.parallel_eff",
                wall > 0.0 ? serial * static_cast<double>(kReplicates) /
                                 (static_cast<double>(opt.threads) * wall)
                           : 0.0,
                "ratio");
  result.metric("util.pool_tasks", median(pool_tasks), "count");
  result.metric("util.pool_queue_depth_max",
                static_cast<double>(obs_value("pool.queue_depth_max")), "count");
  result.metric("untraced_frac", untraced_fraction(spans, "replicate.op"), "ratio");
  result.metric("obs.trace_overhead_frac", overhead, "ratio");
  return result;
}

}  // namespace perfbench
