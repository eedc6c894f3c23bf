// Memory-mapped store reader: validation, zero-copy column views, and the
// cached per-shard event views that the query engine and core overloads
// consume.
//
// EventStore::open performs *all* integrity checking up front — header and
// footer CRCs, column directory bounds/alignment/row arithmetic, per-column
// CRC32, varint decode, and domain validation of every enum and id value.
// After a successful open, every accessor is plain span arithmetic: no
// check can fail later, and a corrupted or truncated file can never reach
// undefined behavior (it is rejected with a typed Error instead).
//
// Lifetime rule: every ColumnView/EventView aliases the mapping owned by
// the EventStore (decoded time values alias an internal cache). Views must
// not outlive the store, and the store is pinned in memory (non-movable)
// so views taken once stay valid for its whole life.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "log/snapshot.h"
#include "model/enums.h"
#include "model/time.h"
#include "store/format.h"
#include "store/mmap_file.h"
#include "store/writer.h"

namespace storsubsim::store {

/// One validated column: raw bytes plus decoded typing. Spans alias the
/// mapping; `as_u32`/`as_f64` require the 8-byte alignment the writer
/// guarantees (verified during open).
struct ColumnView {
  ColumnId id = ColumnId::kEventTime;
  Encoding encoding = Encoding::kRaw;
  std::uint64_t rows = 0;
  const char* data = nullptr;
  std::size_t size = 0;

  std::span<const std::uint8_t> as_u8() const noexcept {
    return {reinterpret_cast<const std::uint8_t*>(data), static_cast<std::size_t>(rows)};
  }
  std::span<const std::uint32_t> as_u32() const noexcept {
    return {reinterpret_cast<const std::uint32_t*>(data), static_cast<std::size_t>(rows)};
  }
  std::span<const double> as_f64() const noexcept {
    return {reinterpret_cast<const double*>(data), static_cast<std::size_t>(rows)};
  }
};

/// All seven event columns of one system-class shard as parallel spans —
/// the unit the core analyses' store overloads consume. Row i across the
/// spans is one classified failure, in canonical (time, disk, type) order.
struct EventView {
  std::span<const double> time;
  std::span<const std::uint8_t> type;        ///< model::FailureType
  std::span<const std::uint8_t> family;      ///< owning system's disk family
  std::span<const std::uint32_t> disk;
  std::span<const std::uint32_t> system;
  std::span<const std::uint32_t> shelf;
  std::span<const std::uint32_t> raid_group;

  std::size_t size() const noexcept { return time.size(); }
  bool empty() const noexcept { return time.empty(); }
};

/// Footer block-index entry: `rows` canonical-order rows of `shard` starting
/// at shard-relative `row_begin`, with detection times in
/// [time_min, time_max]. Lets time-window queries skip whole blocks.
struct BlockEntry {
  std::uint8_t shard = 0;
  std::uint64_t row_begin = 0;
  std::uint64_t rows = 0;
  double time_min = 0.0;
  double time_max = 0.0;
};

/// Pre-computed disk-year exposure aggregates (see ExposureAccumulator for
/// the FP contract that makes these bit-identical to Dataset sweeps).
struct ExposureTable {
  double total_disk_years = 0.0;
  std::array<double, kClassCount> class_disk_years{};
  std::array<std::uint64_t, kClassCount> class_system_count{};
  std::map<char, double> family_disk_years;
  std::map<std::pair<std::uint8_t, char>, double> class_family_disk_years;
};

/// Builds an ExposureTable in one pass: the one implementation behind the
/// writer's footer and the shard MANIFEST. Register every system, then feed
/// every disk row in disk id order. Each cohort (total, class, family,
/// class x family) keeps its own running sum, so its FP additions follow
/// Dataset::disk_exposure_years' id-order sweep over that cohort and AFRs
/// from the table match the in-memory pipeline bit for bit. A cohort is
/// selected by the *system's* class and disk family (Filter::disk_family).
class ExposureAccumulator {
 public:
  explicit ExposureAccumulator(double horizon_seconds) noexcept
      : horizon_seconds_(horizon_seconds) {}

  /// One system of class index `cls` (< kClassCount) whose disks are of
  /// `family`: counts it and makes its cohorts keys of the table.
  void add_system(std::size_t cls, char family);

  /// One disk row owned by a system of class index `cls` and `family`, which
  /// add_system registered.
  void add_disk(std::size_t cls, char family, double install, double remove) noexcept {
    const double years = model::exposure_years(install, remove, horizon_seconds_);
    const auto f = static_cast<unsigned char>(family);
    table_.total_disk_years += years;
    table_.class_disk_years[cls] += years;
    family_years_[f] += years;
    class_family_years_[cls][f] += years;
  }

  /// The table over everything added so far.
  ExposureTable table() const;

 private:
  double horizon_seconds_;
  ExposureTable table_;  ///< totals, class sums and counts, cohort keys
  // Family sums indexed by the family byte, so the per-disk step has no
  // map lookup; table() copies them into the registered keys.
  std::array<double, 256> family_years_{};
  std::array<std::array<double, 256>, kClassCount> class_family_years_{};
};

class EventStore {
 public:
  EventStore() = default;

  // Views alias this object's mapping and caches; pin it in place.
  EventStore(const EventStore&) = delete;
  EventStore& operator=(const EventStore&) = delete;
  EventStore(EventStore&&) = delete;
  EventStore& operator=(EventStore&&) = delete;

  /// Maps and fully validates a store file.
  [[nodiscard]] Error open(const std::string& path);

  /// Validates an in-memory image (tests, fuzzing); takes ownership.
  [[nodiscard]] Error open_image(std::string image);

  const Header& header() const noexcept { return header_; }
  const StoreMeta& meta() const noexcept { return meta_; }
  const ExposureTable& exposure() const noexcept { return exposure_; }

  std::uint64_t event_count() const noexcept { return header_.event_count; }
  /// Events of one system class, canonical (time, disk, type) order.
  const EventView& events(model::SystemClass cls) const noexcept {
    return views_[model::index_of(cls)];
  }
  /// This shard's slice of the time-window block index.
  std::span<const BlockEntry> blocks(model::SystemClass cls) const noexcept {
    const auto& range = shard_blocks_[model::index_of(cls)];
    return std::span<const BlockEntry>(blocks_).subspan(range.first, range.second);
  }

  /// A validated topology column (shard kTopologyShard). Never nullptr for
  /// the columns format.h declares — open() verified their presence.
  const ColumnView* topology(ColumnId id) const noexcept {
    const auto it = columns_.find({kTopologyShard, static_cast<std::uint16_t>(id)});
    return it == columns_.end() ? nullptr : &it->second;
  }

  /// A validated event column of one class shard, raw encoded bytes included
  /// (decode benchmarks and kernel differential tests). Never nullptr for
  /// the event columns format.h declares — open() verified their presence.
  const ColumnView* event_column(model::SystemClass cls, ColumnId id) const noexcept {
    const auto it = columns_.find({static_cast<std::uint8_t>(model::index_of(cls)),
                                   static_cast<std::uint16_t>(id)});
    return it == columns_.end() ? nullptr : &it->second;
  }

  /// Reconstructs the full joined inventory from the topology columns.
  /// Entry i of each vector has dense id i, exactly as parse_snapshot
  /// produces, so a Dataset built from it matches the pipeline's.
  log::Inventory rebuild_inventory() const;

 private:
  [[nodiscard]] Error load();

  MmapFile file_;
  std::string owned_image_;             ///< backing bytes for open_image
  std::vector<std::uint64_t> aligned_;  ///< realigned copy if the heap image needs it
  const char* data_ = nullptr;
  std::size_t size_ = 0;

  Header header_;
  StoreMeta meta_;
  ExposureTable exposure_;
  std::vector<BlockEntry> blocks_;
  std::array<std::pair<std::size_t, std::size_t>, kClassCount> shard_blocks_{};

  std::map<std::pair<std::uint8_t, std::uint16_t>, ColumnView> columns_;
  std::array<std::vector<double>, kClassCount> times_;
  std::array<EventView, kClassCount> views_{};
};

}  // namespace storsubsim::store
