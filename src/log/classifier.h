// Turns parsed log records into storage subsystem failure events.
//
// Following the paper's methodology (§2.5), only RAID-layer events are
// counted as storage subsystem failures — lower-layer precursors are the
// *explanation* of a failure, not additional failures. A de-duplication
// window collapses repeated RAID-layer reports of the same (disk, type)
// that land within a short interval (log replay and multi-path reporting can
// duplicate the terminal line).
#pragma once

#include <span>
#include <vector>

#include "log/parser.h"
#include "model/enums.h"
#include "model/ids.h"

namespace storsubsim::log {

/// A classified storage subsystem failure, the unit of all analysis.
struct ClassifiedFailure {
  double time = 0.0;  ///< detection time (RAID-layer event timestamp)
  model::DiskId disk;
  model::SystemId system;
  model::FailureType type = model::FailureType::kDisk;

  friend bool operator==(const ClassifiedFailure&, const ClassifiedFailure&) = default;
};

/// The canonical event order, (time, disk, type): `classify` returns it, and
/// every merge of classified events (sharded pipeline, store writer, store
/// parts) restores it, so an event list is a pure function of its set.
struct CanonicalOrder {
  bool operator()(const ClassifiedFailure& a, const ClassifiedFailure& b) const {
    if (a.time != b.time) return a.time < b.time;
    if (a.disk != b.disk) return a.disk < b.disk;
    return static_cast<int>(a.type) < static_cast<int>(b.type);
  }
};

struct ClassifierOptions {
  /// RAID-layer duplicates of the same (disk, type) within this window are
  /// collapsed into the first occurrence.
  double dedup_window_seconds = 600.0;
};

struct ClassifierStats {
  std::size_t raid_records = 0;
  std::size_t duplicates_dropped = 0;
  std::size_t missing_disk_dropped = 0;  ///< RAID record without a disk id
};

/// Extracts and de-duplicates failures. Records may arrive in any order;
/// output is in CanonicalOrder. Terminal detection switches on the interned
/// event-code id, so no string is touched.
std::vector<ClassifiedFailure> classify(std::span<const LogView> records,
                                        const ClassifierOptions& options = {},
                                        ClassifierStats* stats = nullptr);

}  // namespace storsubsim::log
