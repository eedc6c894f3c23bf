#include "store/reader.h"

#include <algorithm>
#include <cstring>

#include "obs/obs.h"
#include "store/decode.h"

namespace storsubsim::store {

namespace {

/// Topology columns and the header count each must agree with.
struct TopologySpec {
  ColumnId id;
  std::uint64_t Header::* rows;
};

constexpr TopologySpec kTopologySpec[] = {
    {ColumnId::kSysClass, &Header::system_count},
    {ColumnId::kSysPaths, &Header::system_count},
    {ColumnId::kSysDiskFamily, &Header::system_count},
    {ColumnId::kSysDiskCap, &Header::system_count},
    {ColumnId::kSysShelfModel, &Header::system_count},
    {ColumnId::kSysDeploy, &Header::system_count},
    {ColumnId::kSysCohort, &Header::system_count},
    {ColumnId::kShelfSystem, &Header::shelf_count},
    {ColumnId::kShelfModel, &Header::shelf_count},
    {ColumnId::kDiskFamily, &Header::disk_count},
    {ColumnId::kDiskCap, &Header::disk_count},
    {ColumnId::kDiskSystem, &Header::disk_count},
    {ColumnId::kDiskShelf, &Header::disk_count},
    {ColumnId::kDiskRaidGroup, &Header::disk_count},
    {ColumnId::kDiskSlot, &Header::disk_count},
    {ColumnId::kDiskInstall, &Header::disk_count},
    {ColumnId::kDiskRemove, &Header::disk_count},
    {ColumnId::kRgSystem, &Header::raid_group_count},
    {ColumnId::kRgType, &Header::raid_group_count},
    {ColumnId::kRgMembers, &Header::raid_group_count},
    {ColumnId::kRgSpan, &Header::raid_group_count},
};

constexpr ColumnId kEventColumns[] = {
    ColumnId::kEventTime, ColumnId::kEventType,   ColumnId::kEventFamily,
    ColumnId::kEventDisk, ColumnId::kEventSystem, ColumnId::kEventShelf,
    ColumnId::kEventRaidGroup,
};

[[nodiscard]] Error column_error(ErrorCode code, std::string_view what, ColumnId id,
                   std::uint64_t offset = 0) {
  std::string detail(what);
  detail.append(" (column ").append(column_name(id)).append(")");
  return make_error(code, detail, offset);
}

}  // namespace

void ExposureAccumulator::add_system(std::size_t cls, char family) {
  ++table_.class_system_count[cls];
  table_.family_disk_years.try_emplace(family, 0.0);
  table_.class_family_disk_years.try_emplace({static_cast<std::uint8_t>(cls), family}, 0.0);
}

ExposureTable ExposureAccumulator::table() const {
  ExposureTable out = table_;
  for (auto& [family, years] : out.family_disk_years) {
    years = family_years_[static_cast<unsigned char>(family)];
  }
  for (auto& [key, years] : out.class_family_disk_years) {
    years = class_family_years_[key.first][static_cast<unsigned char>(key.second)];
  }
  return out;
}

Error EventStore::open(const std::string& path) {
  if (Error err = file_.open(path); !err.ok()) return err;
  data_ = file_.data();
  size_ = file_.size();
  return load();
}

Error EventStore::open_image(std::string image) {
  owned_image_ = std::move(image);
  data_ = owned_image_.data();
  size_ = owned_image_.size();
  if (reinterpret_cast<std::uintptr_t>(data_) % kColumnAlignment != 0) {
    // The zero-copy accessors need an 8-aligned base; realign into u64
    // storage (heap strings are rarely misaligned, but never guaranteed).
    aligned_.assign((size_ + kColumnAlignment - 1) / kColumnAlignment, 0);
    if (size_ > 0) std::memcpy(aligned_.data(), owned_image_.data(), size_);
    data_ = reinterpret_cast<const char*>(aligned_.data());
  }
  return load();
}

Error EventStore::load() {
  obs::Span span("store.open");
  columns_.clear();
  blocks_.clear();

  if (data_ == nullptr || size_ < kHeaderSize) {
    return make_error(ErrorCode::kTruncated, "file shorter than the fixed header");
  }
  if (Error err = parse_header(data_, size_, &header_); !err.ok()) return err;
  if (header_.file_size != size_) {
    return make_error(ErrorCode::kTruncated, "file length differs from header",
                      16);
  }

  // --- footer bounds + CRC ---------------------------------------------------
  const std::uint64_t fo = header_.footer_offset;
  const std::uint64_t fs = header_.footer_size;
  if (fo < kHeaderSize || fs < 4 || fo > size_ || fs > size_ - fo ||
      fo + fs != size_) {
    return make_error(ErrorCode::kBadFooter, "footer bounds inconsistent", 24);
  }
  const std::uint32_t footer_crc = read_u32(data_ + size_ - 4);
  if (footer_crc != crc32(data_ + fo, static_cast<std::size_t>(fs - 4))) {
    return make_error(ErrorCode::kBadFooter, "footer CRC32 mismatch", size_ - 4);
  }

  // --- footer payload --------------------------------------------------------
  ByteCursor cur(data_ + fo, static_cast<std::size_t>(fs - 4));

  for (auto& v : meta_.sim_events_by_type) v = cur.u64();
  meta_.sim_replacements = cur.u64();
  meta_.sim_triggered_disk_failures = cur.u64();
  meta_.sim_shelf_faults = cur.u64();
  meta_.sim_path_faults = cur.u64();
  meta_.sim_masked_path_faults = cur.u64();
  meta_.log_lines_written = cur.u64();
  meta_.log_lines_parsed = cur.u64();
  meta_.raid_records = cur.u64();
  meta_.failures_classified = cur.u64();
  meta_.duplicates_dropped = cur.u64();
  meta_.missing_disk_dropped = cur.u64();

  exposure_ = ExposureTable{};
  exposure_.total_disk_years = cur.f64();
  for (auto& v : exposure_.class_disk_years) v = cur.f64();
  for (auto& v : exposure_.class_system_count) v = cur.u64();
  const std::uint32_t n_family = cur.u32();
  if (!cur.ok() || n_family > cur.remaining() / 9) {
    return make_error(ErrorCode::kBadFooter, "exposure family table overruns footer");
  }
  for (std::uint32_t i = 0; i < n_family; ++i) {
    const char family = static_cast<char>(cur.u8());
    exposure_.family_disk_years[family] = cur.f64();
  }
  const std::uint32_t n_class_family = cur.u32();
  if (!cur.ok() || n_class_family > cur.remaining() / 10) {
    return make_error(ErrorCode::kBadFooter, "exposure class table overruns footer");
  }
  for (std::uint32_t i = 0; i < n_class_family; ++i) {
    const std::uint8_t cls = cur.u8();
    const char family = static_cast<char>(cur.u8());
    const double years = cur.f64();
    if (cls >= kClassCount) {
      return make_error(ErrorCode::kBadValue, "exposure entry with bad class");
    }
    exposure_.class_family_disk_years[{cls, family}] = years;
  }

  // --- column directory ------------------------------------------------------
  const std::uint32_t n_columns = cur.u32();
  if (!cur.ok() || n_columns > cur.remaining() / 32) {
    return make_error(ErrorCode::kBadFooter, "column directory overruns footer");
  }
  for (std::uint32_t i = 0; i < n_columns; ++i) {
    ColumnView col;
    const std::uint8_t shard = cur.u8();
    const std::uint16_t raw_id = cur.u16();
    const std::uint8_t encoding = cur.u8();
    col.rows = cur.u64();
    const std::uint64_t offset = cur.u64();
    const std::uint64_t bytes = cur.u64();
    const std::uint32_t crc = cur.u32();
    if (!cur.ok()) break;

    col.id = static_cast<ColumnId>(raw_id);
    col.encoding = static_cast<Encoding>(encoding);
    const bool event_column = raw_id < 16;
    if ((shard >= kClassCount && shard != kTopologyShard) ||
        (event_column != (shard != kTopologyShard))) {
      return column_error(ErrorCode::kBadColumn, "column in wrong shard", col.id);
    }
    const Encoding expected = col.id == ColumnId::kEventTime
                                  ? Encoding::kDeltaVarint
                                  : Encoding::kRaw;
    if (col.encoding != expected) {
      return column_error(ErrorCode::kBadColumn, "unexpected encoding", col.id);
    }
    if (offset < kHeaderSize || offset % kColumnAlignment != 0 || offset > fo ||
        bytes > fo - offset) {
      return column_error(ErrorCode::kBadColumn, "column bounds inconsistent",
                          col.id, offset);
    }
    const std::size_t width = element_size(col.id);
    if (width != 0 && (col.rows > bytes / width || col.rows * width != bytes)) {
      return column_error(ErrorCode::kBadColumn, "row count disagrees with size",
                          col.id, offset);
    }
    if (width == 0 && col.rows > bytes) {
      return column_error(ErrorCode::kBadColumn, "more rows than encoded bytes",
                          col.id, offset);
    }
    col.data = data_ + offset;
    col.size = static_cast<std::size_t>(bytes);
    obs::Span crc_span("store.open.crc");
    const bool crc_ok = crc == crc32(col.data, col.size);
    crc_span.stop();
    STORSIM_OBS_COUNTER(c_cols, "store.open.columns_validated",
                        ::storsubsim::obs::Stability::kDeterministic);
    STORSIM_OBS_ADD(c_cols, 1);
    STORSIM_OBS_COUNTER(c_crc_bytes, "store.open.crc_bytes",
                        ::storsubsim::obs::Stability::kDeterministic);
    STORSIM_OBS_ADD(c_crc_bytes, col.size);
    if (!crc_ok) {
      return column_error(ErrorCode::kChecksum, "column CRC32 mismatch", col.id,
                          offset);
    }
    if (!columns_.emplace(std::make_pair(shard, raw_id), col).second) {
      return column_error(ErrorCode::kBadColumn, "duplicate column", col.id);
    }
  }

  // --- block index -----------------------------------------------------------
  const std::uint32_t n_blocks = cur.u32();
  if (!cur.ok() || n_blocks > cur.remaining() / 33) {
    return make_error(ErrorCode::kBadFooter, "block index overruns footer");
  }
  blocks_.reserve(n_blocks);
  for (std::uint32_t i = 0; i < n_blocks; ++i) {
    BlockEntry block;
    block.shard = cur.u8();
    block.row_begin = cur.u64();
    block.rows = cur.u64();
    block.time_min = cur.f64();
    block.time_max = cur.f64();
    blocks_.push_back(block);
  }
  if (!cur.ok() || cur.remaining() != 0) {
    return make_error(ErrorCode::kBadFooter, "footer payload truncated");
  }

  // --- presence + cross-column consistency -----------------------------------
  for (const auto& spec : kTopologySpec) {
    const auto it = columns_.find({kTopologyShard, static_cast<std::uint16_t>(spec.id)});
    if (it == columns_.end()) {
      return column_error(ErrorCode::kBadColumn, "missing topology column", spec.id);
    }
    if (it->second.rows != header_.*spec.rows) {
      return column_error(ErrorCode::kBadColumn,
                          "topology rows disagree with header", spec.id);
    }
  }

  std::array<std::uint64_t, kClassCount> shard_rows{};
  std::uint64_t total_rows = 0;
  for (std::uint8_t s = 0; s < kClassCount; ++s) {
    std::uint64_t rows = 0;
    bool first = true;
    for (const ColumnId id : kEventColumns) {
      const auto it = columns_.find({s, static_cast<std::uint16_t>(id)});
      if (it == columns_.end()) {
        return column_error(ErrorCode::kBadColumn, "missing event column", id);
      }
      if (first) {
        rows = it->second.rows;
        first = false;
      } else if (it->second.rows != rows) {
        return column_error(ErrorCode::kBadColumn, "shard rows disagree", id);
      }
    }
    shard_rows[s] = rows;
    total_rows += rows;
  }
  if (total_rows != header_.event_count) {
    return make_error(ErrorCode::kBadColumn,
                      "shard rows do not sum to header event count");
  }

  // --- time decode (delta-zigzag-varint over f64 bit patterns) ---------------
  // Block-granular: decode_time_block processes kBlockRows values per call
  // (batch varint + fused zigzag prefix-sum) straight into the times_ arena
  // through one reusable delta scratch buffer — no per-block allocation.
  {
    obs::Span decode_span("store.open.decode");
    std::vector<std::uint64_t> delta_scratch(kBlockRows);
    for (std::size_t s = 0; s < kClassCount; ++s) {
      const ColumnView& col =
          columns_.at({static_cast<std::uint8_t>(s),
                       static_cast<std::uint16_t>(ColumnId::kEventTime)});
      auto& times = times_[s];
      times.assign(static_cast<std::size_t>(col.rows), 0.0);
      const char* p = col.data;
      const char* end = col.data + col.size;
      std::uint64_t prev_bits = 0;  // unsigned: wraparound on hostile input is defined
      std::uint64_t row = 0;
      std::uint64_t blocks_decoded = 0;
      while (row < col.rows) {
        const std::size_t rows = static_cast<std::size_t>(
            std::min<std::uint64_t>(kBlockRows, col.rows - row));
        const std::size_t consumed = decode_time_block(
            p, end, rows, delta_scratch.data(), &prev_bits,
            times.data() + static_cast<std::size_t>(row));
        if (consumed == 0) {
          return column_error(ErrorCode::kBadValue, "varint decode overran column",
                              ColumnId::kEventTime);
        }
        p += consumed;
        row += rows;
        ++blocks_decoded;
      }
      if (p != end) {
        return column_error(ErrorCode::kBadValue, "trailing bytes after varints",
                            ColumnId::kEventTime);
      }
      STORSIM_OBS_COUNTER(c_blocks, "store.decode.blocks",
                          ::storsubsim::obs::Stability::kDeterministic);
      STORSIM_OBS_ADD(c_blocks, blocks_decoded);
      STORSIM_OBS_COUNTER(c_rows, "store.decode.rows",
                          ::storsubsim::obs::Stability::kDeterministic);
      STORSIM_OBS_ADD(c_rows, col.rows);
    }
  }

  // --- value domain checks ---------------------------------------------------
  // After these, analyses may index inventory vectors with column values
  // without bounds checks. Whole-column kernel sweeps (decode.h): an id
  // column is in domain iff every value is < the entity count (u32 ids may
  // additionally be Id::kInvalid where spares are legal).
  auto event_col = [&](std::size_t s, ColumnId id) -> const ColumnView& {
    return columns_.at({static_cast<std::uint8_t>(s), static_cast<std::uint16_t>(id)});
  };
  auto u8_in_domain = [](const ColumnView& col, std::uint8_t limit) {
    const auto vals = col.as_u8();
    return all_lt_u8(vals.data(), vals.size(), limit);
  };
  auto u32_col_in_domain = [](const ColumnView& col, std::uint64_t limit,
                              bool allow_invalid) {
    const auto vals = col.as_u32();
    // Entity counts were validated against real column sizes above, so they
    // fit u32 (ids are u32); clamp defensively for hostile headers.
    const std::uint32_t lim = limit > 0xffffffffull
                                  ? 0xffffffffu
                                  : static_cast<std::uint32_t>(limit);
    return all_ids_in_domain_u32(vals.data(), vals.size(), lim, allow_invalid);
  };
  for (std::size_t s = 0; s < kClassCount; ++s) {
    if (!u8_in_domain(event_col(s, ColumnId::kEventType), kFailureTypeCount)) {
      return column_error(ErrorCode::kBadValue, "failure type out of domain",
                          ColumnId::kEventType);
    }
    if (!u32_col_in_domain(event_col(s, ColumnId::kEventDisk), header_.disk_count,
                           false)) {
      return column_error(ErrorCode::kBadValue, "disk id out of domain",
                          ColumnId::kEventDisk);
    }
    if (!u32_col_in_domain(event_col(s, ColumnId::kEventSystem),
                           header_.system_count, false)) {
      return column_error(ErrorCode::kBadValue, "system id out of domain",
                          ColumnId::kEventSystem);
    }
    if (!u32_col_in_domain(event_col(s, ColumnId::kEventShelf), header_.shelf_count,
                           false)) {
      return column_error(ErrorCode::kBadValue, "shelf id out of domain",
                          ColumnId::kEventShelf);
    }
    if (!u32_col_in_domain(event_col(s, ColumnId::kEventRaidGroup),
                           header_.raid_group_count, true)) {
      return column_error(ErrorCode::kBadValue, "raid group id out of domain",
                          ColumnId::kEventRaidGroup);
    }
  }
  auto topo = [&](ColumnId id) -> const ColumnView& {
    return columns_.at({kTopologyShard, static_cast<std::uint16_t>(id)});
  };
  if (!u8_in_domain(topo(ColumnId::kSysClass), kClassCount)) {
    return column_error(ErrorCode::kBadValue, "system class out of domain",
                        ColumnId::kSysClass);
  }
  if (!u8_in_domain(topo(ColumnId::kSysPaths), 2)) {
    return column_error(ErrorCode::kBadValue, "path config out of domain",
                        ColumnId::kSysPaths);
  }
  if (!u32_col_in_domain(topo(ColumnId::kShelfSystem), header_.system_count, false)) {
    return column_error(ErrorCode::kBadValue, "shelf system out of domain",
                        ColumnId::kShelfSystem);
  }
  if (!u32_col_in_domain(topo(ColumnId::kDiskSystem), header_.system_count, false)) {
    return column_error(ErrorCode::kBadValue, "disk system out of domain",
                        ColumnId::kDiskSystem);
  }
  if (!u32_col_in_domain(topo(ColumnId::kDiskShelf), header_.shelf_count, false)) {
    return column_error(ErrorCode::kBadValue, "disk shelf out of domain",
                        ColumnId::kDiskShelf);
  }
  if (!u32_col_in_domain(topo(ColumnId::kDiskRaidGroup), header_.raid_group_count,
                         true)) {
    return column_error(ErrorCode::kBadValue, "disk raid group out of domain",
                        ColumnId::kDiskRaidGroup);
  }
  if (!u32_col_in_domain(topo(ColumnId::kRgSystem), header_.system_count, false)) {
    return column_error(ErrorCode::kBadValue, "raid group system out of domain",
                        ColumnId::kRgSystem);
  }
  if (!u8_in_domain(topo(ColumnId::kRgType), 2)) {
    return column_error(ErrorCode::kBadValue, "raid type out of domain",
                        ColumnId::kRgType);
  }

  // --- block index consistency -----------------------------------------------
  // Writer emits blocks grouped by shard in class order; reject anything else
  // so blocks(cls) can slice contiguously.
  std::size_t cursor = 0;
  for (std::uint8_t s = 0; s < kClassCount; ++s) {
    const std::size_t begin = cursor;
    while (cursor < blocks_.size() && blocks_[cursor].shard == s) ++cursor;
    shard_blocks_[s] = {begin, cursor - begin};
  }
  if (cursor != blocks_.size()) {
    return make_error(ErrorCode::kBadFooter, "block index not grouped by shard");
  }
  for (const auto& block : blocks_) {
    const std::uint64_t rows = shard_rows[block.shard];
    if (block.rows == 0 || block.rows > rows || block.row_begin > rows - block.rows) {
      return make_error(ErrorCode::kBadFooter, "block range exceeds shard rows");
    }
    // Writer invariant: blocks never exceed the format block size. Enforcing
    // it here lets the query engine size its selection-bitmap scratch at a
    // fixed bitmap_words(kBlockRows) words.
    if (block.rows > kBlockRows) {
      return make_error(ErrorCode::kBadFooter, "block larger than format block size");
    }
  }

  // --- cached per-shard views ------------------------------------------------
  for (std::size_t s = 0; s < kClassCount; ++s) {
    EventView& view = views_[s];
    view.time = times_[s];
    view.type = event_col(s, ColumnId::kEventType).as_u8();
    view.family = event_col(s, ColumnId::kEventFamily).as_u8();
    view.disk = event_col(s, ColumnId::kEventDisk).as_u32();
    view.system = event_col(s, ColumnId::kEventSystem).as_u32();
    view.shelf = event_col(s, ColumnId::kEventShelf).as_u32();
    view.raid_group = event_col(s, ColumnId::kEventRaidGroup).as_u32();
  }
  return Error{};
}

log::Inventory EventStore::rebuild_inventory() const {
  auto topo = [&](ColumnId id) -> const ColumnView& {
    return columns_.at({kTopologyShard, static_cast<std::uint16_t>(id)});
  };
  log::Inventory inv;
  inv.horizon_seconds = header_.horizon_seconds;

  const auto sys_cls = topo(ColumnId::kSysClass).as_u8();
  const auto sys_paths = topo(ColumnId::kSysPaths).as_u8();
  const auto sys_family = topo(ColumnId::kSysDiskFamily).as_u8();
  const auto sys_cap = topo(ColumnId::kSysDiskCap).as_u32();
  const auto sys_shelf_model = topo(ColumnId::kSysShelfModel).as_u8();
  const auto sys_deploy = topo(ColumnId::kSysDeploy).as_f64();
  const auto sys_cohort = topo(ColumnId::kSysCohort).as_u32();
  inv.systems.reserve(sys_cls.size());
  for (std::size_t i = 0; i < sys_cls.size(); ++i) {
    log::InventorySystem sys;
    sys.id = model::SystemId(static_cast<std::uint32_t>(i));
    sys.cls = static_cast<model::SystemClass>(sys_cls[i]);
    sys.paths = static_cast<model::PathConfig>(sys_paths[i]);
    sys.disk_model = {static_cast<char>(sys_family[i]), static_cast<int>(sys_cap[i])};
    sys.shelf_model = {static_cast<char>(sys_shelf_model[i])};
    sys.deploy_time = sys_deploy[i];
    sys.cohort = sys_cohort[i];
    inv.systems.push_back(sys);
  }

  const auto shelf_system = topo(ColumnId::kShelfSystem).as_u32();
  const auto shelf_model = topo(ColumnId::kShelfModel).as_u8();
  inv.shelves.reserve(shelf_system.size());
  for (std::size_t i = 0; i < shelf_system.size(); ++i) {
    log::InventoryShelf shelf;
    shelf.id = model::ShelfId(static_cast<std::uint32_t>(i));
    shelf.system = model::SystemId(shelf_system[i]);
    shelf.model = {static_cast<char>(shelf_model[i])};
    inv.shelves.push_back(shelf);
  }

  const auto disk_family = topo(ColumnId::kDiskFamily).as_u8();
  const auto disk_cap = topo(ColumnId::kDiskCap).as_u32();
  const auto disk_system = topo(ColumnId::kDiskSystem).as_u32();
  const auto disk_shelf = topo(ColumnId::kDiskShelf).as_u32();
  const auto disk_rg = topo(ColumnId::kDiskRaidGroup).as_u32();
  const auto disk_slot = topo(ColumnId::kDiskSlot).as_u32();
  const auto disk_install = topo(ColumnId::kDiskInstall).as_f64();
  const auto disk_remove = topo(ColumnId::kDiskRemove).as_f64();
  inv.disks.reserve(disk_family.size());
  for (std::size_t i = 0; i < disk_family.size(); ++i) {
    log::InventoryDisk disk;
    disk.id = model::DiskId(static_cast<std::uint32_t>(i));
    disk.model = {static_cast<char>(disk_family[i]), static_cast<int>(disk_cap[i])};
    disk.system = model::SystemId(disk_system[i]);
    disk.shelf = model::ShelfId(disk_shelf[i]);
    disk.raid_group = model::RaidGroupId(disk_rg[i]);
    disk.slot = disk_slot[i];
    disk.install_time = disk_install[i];
    disk.remove_time = disk_remove[i];
    inv.disks.push_back(disk);
  }

  const auto rg_system = topo(ColumnId::kRgSystem).as_u32();
  const auto rg_type = topo(ColumnId::kRgType).as_u8();
  const auto rg_members = topo(ColumnId::kRgMembers).as_u32();
  const auto rg_span = topo(ColumnId::kRgSpan).as_u32();
  inv.raid_groups.reserve(rg_system.size());
  for (std::size_t i = 0; i < rg_system.size(); ++i) {
    log::InventoryRaidGroup rg;
    rg.id = model::RaidGroupId(static_cast<std::uint32_t>(i));
    rg.system = model::SystemId(rg_system[i]);
    rg.type = static_cast<model::RaidType>(rg_type[i]);
    rg.member_count = rg_members[i];
    rg.shelf_span = rg_span[i];
    inv.raid_groups.push_back(rg);
  }
  return inv;
}

}  // namespace storsubsim::store
