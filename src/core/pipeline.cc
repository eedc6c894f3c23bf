#include "core/pipeline.h"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "log/classifier.h"
#include "log/line_writer.h"
#include "log/parser.h"
#include "log/snapshot.h"
#include "obs/obs.h"
#include "sim/log_bridge.h"
#include "util/parallel.h"

namespace storsubsim::core {

namespace {

/// Rough bytes-per-failure for pre-sizing a shard's log buffer: chains are
/// 3-6 lines of ~60-190 characters (see log/emitter.cc tables).
constexpr std::size_t kLogBytesPerFailure = 768;

/// Bytes per snapshot line for pre-sizing a slice's buffer: DISK lines, the
/// bulk of the text, run ~110 characters.
constexpr std::size_t kSnapshotBytesPerLine = 128;

/// One shard's emit -> parse -> classify round-trip. The emitter, parser and
/// classifier are stateless across records except for the classifier's
/// (disk, type) de-duplication window — and a disk lives in exactly one
/// system, so sharding by system keeps every dedup decision within a shard.
///
/// The whole trip happens in one retained text buffer: the emitter appends
/// rendered lines to it, the parser walks it yielding views that alias it,
/// and the classifier consumes the views — the buffer outlives all of them
/// (it dies when this function returns, after classification).
struct ShardOutput {
  std::vector<log::ClassifiedFailure> failures;
  PipelineStats stats;
};

ShardOutput roundtrip_shard(const model::Fleet& fleet,
                            std::span<const sim::SimFailure> failures) {
  ShardOutput out;

  {
    obs::Span span("pipeline.emit");
    log::LineWriter log_text(failures.size() * kLogBytesPerFailure);
    out.stats.log_lines_written = sim::write_failure_logs(log_text, fleet, failures);
    out.stats.stage_seconds.emit = span.stop();

    out.failures = parse_and_classify(log_text.view(), out.stats).failures;
  }

  STORSIM_OBS_COUNTER(c_classified, "pipeline.failures_classified",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_classified, out.stats.failures_classified);
  return out;
}

/// One slice's snapshot round trip: write lines [line_begin, line_end) of
/// the fleet's snapshot text into a buffer of its own, then parse them back.
/// The text dies here; the partial inventory is merged by the caller.
log::SnapshotParseResult roundtrip_snapshot_slice(const model::Fleet& fleet,
                                                  const log::SnapshotSlice& slice,
                                                  double* seconds) {
  obs::Span span("pipeline.snapshot");
  log::LineWriter text((slice.line_end - slice.line_begin) * kSnapshotBytesPerLine);
  log::write_snapshot_slice(text, fleet, slice);
  log::SnapshotParseResult parsed = log::parse_snapshot_slice(text.view(), slice);
  *seconds = span.stop();
  return parsed;
}

void accumulate(PipelineStats& into, const PipelineStats& shard) {
  into.log_lines_written += shard.log_lines_written;
  into.log_lines_parsed += shard.log_lines_parsed;
  into.raid_records += shard.raid_records;
  into.failures_classified += shard.failures_classified;
  into.duplicates_dropped += shard.duplicates_dropped;
  into.missing_disk_dropped += shard.missing_disk_dropped;
  into.stage_seconds.emit += shard.stage_seconds.emit;
  into.stage_seconds.parse += shard.stage_seconds.parse;
  into.stage_seconds.classify += shard.stage_seconds.classify;
}

}  // namespace

ClassifiedLog parse_and_classify(std::string_view text, PipelineStats& stats) {
  ClassifiedLog out;
  obs::Span parse_span("pipeline.parse");
  out.parse = log::parse_text(text, out.records);
  stats.log_lines_parsed = out.parse.lines_parsed;
  stats.stage_seconds.parse = parse_span.stop();

  obs::Span classify_span("pipeline.classify");
  log::ClassifierStats classifier;
  out.failures = log::classify(out.records, {}, &classifier);
  stats.raid_records = classifier.raid_records;
  stats.failures_classified = out.failures.size();
  stats.duplicates_dropped = classifier.duplicates_dropped;
  stats.missing_disk_dropped = classifier.missing_disk_dropped;
  stats.stage_seconds.classify = classify_span.stop();
  return out;
}

Dataset dataset_via_logs(const model::Fleet& fleet, const sim::SimResult& result,
                         PipelineStats* stats) {
  PipelineStats local;

  // One pool task per worker. Task k round-trips line-range slice k of the
  // config snapshot, then log shard k when there is one.
  const std::size_t tasks = util::thread_count();
  const std::size_t n_systems = fleet.systems().size();
  std::size_t shards = std::min<std::size_t>(tasks, n_systems == 0 ? 1 : n_systems);
  if (result.failures.size() < 2048) shards = 1;  // not worth the fan-out
  STORSIM_OBS_COUNTER(c_shards, "pipeline.shards",
                      ::storsubsim::obs::Stability::kSchedulingDependent);
  STORSIM_OBS_ADD(c_shards, shards);

  // Partition failures by contiguous system ranges (shard s owns systems
  // [s*n/S, (s+1)*n/S)), preserving detection order within each bucket.
  std::vector<std::vector<sim::SimFailure>> buckets;
  if (shards > 1) {
    std::vector<std::uint32_t> shard_of_system(n_systems);
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t begin = n_systems * s / shards;
      const std::size_t end = n_systems * (s + 1) / shards;
      for (std::size_t sys = begin; sys < end; ++sys) {
        shard_of_system[sys] = static_cast<std::uint32_t>(s);
      }
    }
    buckets.resize(shards);
    for (auto& b : buckets) b.reserve(result.failures.size() / shards + 1);
    for (const auto& f : result.failures) {
      buckets[shard_of_system[f.system.value()]].push_back(f);
    }
  }

  const log::SnapshotLayout layout = log::SnapshotLayout::of(fleet);
  std::vector<log::SnapshotSlice> slices(tasks);
  for (std::size_t k = 0; k < tasks; ++k) slices[k] = layout.slice(k, tasks);
  std::vector<log::SnapshotParseResult> snapshot_parts(tasks);
  std::vector<double> snapshot_seconds(tasks, 0.0);
  std::vector<ShardOutput> outputs(shards);
  util::parallel_for(tasks, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      snapshot_parts[k] = roundtrip_snapshot_slice(fleet, slices[k], &snapshot_seconds[k]);
      if (k < shards) {
        outputs[k] = roundtrip_shard(
            fleet, shards == 1 ? std::span<const sim::SimFailure>(result.failures) : buckets[k]);
      }
    }
  });

  obs::Span merge_span("pipeline.inventory_merge");
  log::SnapshotParseResult snapshot = log::merge_snapshot_slices(slices, snapshot_parts);
  merge_span.stop();
  if (!snapshot.ok()) {
    throw std::runtime_error(
        std::string("pipeline: snapshot round-trip failed: ").append(snapshot.error));
  }
  for (const double seconds : snapshot_seconds) local.stage_seconds.snapshot += seconds;

  std::size_t total = 0;
  for (const auto& out : outputs) total += out.failures.size();
  std::vector<log::ClassifiedFailure> classified = std::move(outputs[0].failures);
  classified.reserve(total);
  accumulate(local, outputs[0].stats);
  for (std::size_t s = 1; s < shards; ++s) {
    classified.insert(classified.end(), outputs[s].failures.begin(), outputs[s].failures.end());
    accumulate(local, outputs[s].stats);
  }
  if (shards > 1) {
    // Restore the classifier's global output order (time, disk, type) so the
    // sharded pipeline is bit-identical to the serial one.
    obs::Span sort_span("pipeline.sort");
    std::sort(classified.begin(), classified.end(), log::CanonicalOrder{});
    local.stage_seconds.sort = sort_span.stop();
  }

  if (stats != nullptr) *stats = local;
  return Dataset(std::make_shared<log::Inventory>(std::move(snapshot.inventory)),
                 std::move(classified));
}

Dataset dataset_in_memory(const model::Fleet& fleet, const sim::SimResult& result) {
  std::vector<FailureEvent> events;
  events.reserve(result.failures.size());
  for (const auto& f : result.failures) {
    events.push_back(FailureEvent{f.detect_time, f.disk, f.system, f.type});
  }
  return Dataset(std::make_shared<log::Inventory>(log::inventory_from_fleet(fleet)),
                 std::move(events));
}

SimulationDataset simulate_and_analyze(const model::FleetConfig& config,
                                       const sim::SimParams& params, bool through_text_logs) {
  obs::Span sim_span("pipeline.simulate");
  sim::FleetSimulation simulation = sim::simulate_fleet(config, params);
  const double simulate_seconds = sim_span.stop();
  PipelineStats pipeline;
  Dataset dataset = through_text_logs
                        ? dataset_via_logs(simulation.fleet, simulation.result, &pipeline)
                        : dataset_in_memory(simulation.fleet, simulation.result);
  pipeline.stage_seconds.simulate = simulate_seconds;
  return SimulationDataset{std::move(dataset), simulation.result.counters, pipeline};
}

}  // namespace storsubsim::core
