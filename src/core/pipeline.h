// End-to-end dataset construction: simulate -> emit text logs -> parse ->
// classify -> join with the parsed snapshot. This mirrors how the paper's
// data flowed (AutoSupport logs in, analysis out) and exercises every
// substrate, so the benches and examples default to it. The in-memory
// fast path (no text round-trip) is available for interactive use.
//
// Both text round trips fan out over the shared pool in one parallel_for
// of one task per worker: task k writes and parses line-range slice k of
// the config snapshot (log/snapshot.h), then emits, parses and classifies
// the failures of system-range shard k. The parsed slices are joined in
// slice order and the shards' failures re-sorted into the classifier's
// global order, so the dataset is bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "log/parser.h"
#include "model/fleet_config.h"
#include "sim/params.h"
#include "sim/simulator.h"

namespace storsubsim::core {

/// Wall time each pipeline stage spent, in seconds. Observability only —
/// stage times are outputs, never inputs, so the dataset stays bit-identical
/// regardless of timer behavior. In the sharded pipeline snapshot and
/// emit/parse/classify are summed across slices and shards (CPU-seconds,
/// not wall span).
struct StageSeconds {
  double simulate = 0.0;
  double snapshot = 0.0;  ///< snapshot text write + parse, all slices
  double emit = 0.0;
  double parse = 0.0;
  double classify = 0.0;
  double sort = 0.0;  ///< global merge sort of shard outputs
};

struct PipelineStats {
  std::size_t log_lines_written = 0;
  std::size_t log_lines_parsed = 0;
  std::size_t raid_records = 0;
  std::size_t failures_classified = 0;
  std::size_t duplicates_dropped = 0;    ///< classifier de-dup window hits
  std::size_t missing_disk_dropped = 0;  ///< RAID records without a disk id
  StageSeconds stage_seconds;
};

/// What one parse -> classify pass over a log text yields. `records` alias
/// the text, which must outlive them.
struct ClassifiedLog {
  std::vector<log::LogView> records;
  log::ParseStats parse;
  std::vector<FailureEvent> failures;
};

/// The read half of the log round trip, shared by the pipeline and by
/// callers that read log files: parses `text` (span pipeline.parse) and
/// classifies the records (span pipeline.classify). Sets the parse and
/// classify counters of `stats` (log_lines_parsed, raid_records,
/// failures_classified, duplicates_dropped, missing_disk_dropped) and their
/// stage seconds; `log_lines_written` stays the caller's to set.
ClassifiedLog parse_and_classify(std::string_view text, PipelineStats& stats);

/// Builds a Dataset from an already-run simulation via the text-log
/// round-trip (emit -> parse -> classify -> parse snapshot -> join).
Dataset dataset_via_logs(const model::Fleet& fleet, const sim::SimResult& result,
                         PipelineStats* stats = nullptr);

/// Builds a Dataset directly from simulator output (no text round-trip).
Dataset dataset_in_memory(const model::Fleet& fleet, const sim::SimResult& result);

/// One-call convenience: build fleet, simulate, and return the dataset via
/// the text-log path.
struct SimulationDataset {
  Dataset dataset;
  sim::SimCounters counters;
  PipelineStats pipeline;
};

SimulationDataset simulate_and_analyze(const model::FleetConfig& config,
                                       const sim::SimParams& params = sim::SimParams::standard(),
                                       bool through_text_logs = true);

}  // namespace storsubsim::core
