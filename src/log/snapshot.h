// Configuration snapshots: the inventory side of the support logs.
//
// The studied systems copy their configuration into the logs weekly (paper
// §2.5); the analysis joins failure events with this inventory to know which
// shelf/RAID group/model a failed disk belonged to, and to account exposure
// time. We serialize a complete inventory (systems, shelves, disks with
// install/remove times, RAID groups) as a text section and parse it back
// into a plain `Inventory` that the analysis layer consumes — keeping the
// analysis decoupled from the simulator's live Fleet object.
//
// Like the failure-log pipeline, the snapshot codec works on text buffers:
// `write_snapshot` appends the section to a reusable LineWriter and
// `parse_snapshot` walks text in place.
//
// The text has one line per record, in a fixed order, so it can be cut into
// line-range slices that are written and parsed independently: slice k of K
// covers lines [L*k/K, L*(k+1)/K), and the slices concatenated are the whole
// text byte for byte. `write_snapshot_slice` and `parse_snapshot_slice` are
// the two kernels; `merge_snapshot_slices` joins parsed slices in order and
// checks referential integrity once over the result. The whole-text calls are
// the one-slice case of the same kernels, and `parse_snapshot` stays the only
// entry point for untrusted text.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "log/line_writer.h"
#include "model/disk_model.h"
#include "model/enums.h"
#include "model/ids.h"
#include "model/shelf_model.h"

namespace storsubsim::model {
class Fleet;
}

namespace storsubsim::log {

struct InventorySystem {
  model::SystemId id;
  model::SystemClass cls = model::SystemClass::kNearLine;
  model::PathConfig paths = model::PathConfig::kSinglePath;
  model::DiskModelName disk_model;
  model::ShelfModelName shelf_model;
  double deploy_time = 0.0;
  std::uint32_t cohort = 0;

  friend bool operator==(const InventorySystem&, const InventorySystem&) = default;
};

struct InventoryShelf {
  model::ShelfId id;
  model::SystemId system;
  model::ShelfModelName model;

  friend bool operator==(const InventoryShelf&, const InventoryShelf&) = default;
};

struct InventoryDisk {
  model::DiskId id;
  model::DiskModelName model;
  model::SystemId system;
  model::ShelfId shelf;
  model::RaidGroupId raid_group;
  std::uint32_t slot = 0;
  double install_time = 0.0;
  double remove_time = std::numeric_limits<double>::infinity();

  friend bool operator==(const InventoryDisk&, const InventoryDisk&) = default;
};

struct InventoryRaidGroup {
  model::RaidGroupId id;
  model::SystemId system;
  model::RaidType type = model::RaidType::kRaid4;
  std::uint32_t member_count = 0;
  std::uint32_t shelf_span = 0;

  friend bool operator==(const InventoryRaidGroup&, const InventoryRaidGroup&) = default;
};

/// The complete joined inventory. Entries are indexed by their dense ids
/// (entry i has id i), which the parser verifies.
struct Inventory {
  std::vector<InventorySystem> systems;
  std::vector<InventoryShelf> shelves;
  std::vector<InventoryDisk> disks;
  std::vector<InventoryRaidGroup> raid_groups;
  double horizon_seconds = 0.0;

  /// Exposure of a disk record in years, clipped to [0, horizon].
  double disk_exposure_years(const InventoryDisk& disk) const;
};

/// Where one slice sits in the whole snapshot text. Line 0 is the SNAPSHOT
/// header; then come one line per system, shelf, RAID group and disk, each
/// kind in id order; the last line is END. The default value is the whole
/// text of unknown length, which is how untrusted text is parsed.
struct SnapshotSlice {
  std::size_t line_begin = 0;  ///< first line of the slice, 0-based
  std::size_t line_end = std::numeric_limits<std::size_t>::max();  ///< one past the last
  /// Id of the first record of each kind at or after `line_begin`. The
  /// parser requires each kind's ids to run densely from its base.
  std::size_t system_base = 0;
  std::size_t shelf_base = 0;
  std::size_t raid_group_base = 0;
  std::size_t disk_base = 0;
  bool has_header = true;  ///< the slice holds line 0
  bool has_end = true;     ///< the slice holds the END line
};

/// Record counts per kind: they fix the line layout of a fleet's snapshot.
struct SnapshotLayout {
  std::size_t systems = 0;
  std::size_t shelves = 0;
  std::size_t raid_groups = 0;
  std::size_t disks = 0;

  static SnapshotLayout of(const model::Fleet& fleet);

  /// Lines in the whole text: the records plus the header and END lines.
  std::size_t lines() const { return systems + shelves + raid_groups + disks + 2; }

  /// Slice k of `count` (k < count): lines [lines()*k/count,
  /// lines()*(k+1)/count), with the per-kind id bases derived from its first
  /// line. Empty when count exceeds the line count and k falls between two
  /// cut points.
  SnapshotSlice slice(std::size_t k, std::size_t count) const;
};

/// Appends lines [slice.line_begin, slice.line_end) of the fleet's snapshot
/// text. The fleet must have the layout the slice was cut from.
void write_snapshot_slice(LineWriter& out, const model::Fleet& fleet,
                          const SnapshotSlice& slice);

/// Appends the fleet's full inventory (including retired disk records) to a
/// text buffer: the one-slice case of write_snapshot_slice.
void write_snapshot(LineWriter& out, const model::Fleet& fleet);

/// Result of parsing a snapshot; `error` is empty on success.
struct SnapshotParseResult {
  Inventory inventory;
  std::string error;
  std::size_t lines = 0;  ///< number of the last line read, counted over the whole text

  bool ok() const { return error.empty(); }
};

/// Parses one slice's text into a partial inventory whose vectors hold the
/// slice's records only (entry i has id base + i). Line numbers in errors
/// count from `slice.line_begin`. A slice without the header or END line
/// rejects one; a slice with them requires it. No referential-integrity
/// check: that needs every slice, and merge_snapshot_slices runs it.
SnapshotParseResult parse_snapshot_slice(std::string_view text, const SnapshotSlice& slice);

/// Joins parsed slices, given in slice order with the slices they were
/// parsed from, into one inventory, then checks referential integrity over
/// it. The records are moved out of `parsed`. Fails with the first failed
/// slice's error, or when a slice's records do not continue where the
/// previous slice's ended.
SnapshotParseResult merge_snapshot_slices(std::span<const SnapshotSlice> slices,
                                          std::span<SnapshotParseResult> parsed);

/// Parses a snapshot section from an in-memory buffer (no per-line
/// copies): the one-slice case of the kernels above. The result owns
/// everything; `text` may die after.
SnapshotParseResult parse_snapshot(std::string_view text);

/// Builds the same Inventory directly from a live fleet (bypassing text) —
/// used by tests to verify write/parse round-trips and by callers that do
/// not need the end-to-end path.
Inventory inventory_from_fleet(const model::Fleet& fleet);

}  // namespace storsubsim::log
