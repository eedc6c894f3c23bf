#include "store/writer.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "store/mmap_file.h"
#include "store/reader.h"
#include "util/parallel.h"

namespace storsubsim::store {

namespace {

/// Column bookkeeping while the image is under construction. Offsets are
/// relative to the enclosing buffer until final assembly.
struct ColumnRecord {
  std::uint8_t shard = 0;
  ColumnId id = ColumnId::kEventTime;
  Encoding encoding = Encoding::kRaw;
  std::uint64_t rows = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

/// One footer block-index entry; `row_begin` is relative to the shard.
struct BlockRecord {
  std::uint8_t shard = 0;
  std::uint64_t row_begin = 0;
  std::uint64_t rows = 0;
  double time_min = 0.0;
  double time_max = 0.0;
};

void pad_to_alignment(std::string& out) {
  while (out.size() % kColumnAlignment != 0) out.push_back('\0');
}

/// Seals the column that started at `begin`: computes its CRC and records it.
void finish_column(std::string& buf, std::size_t begin, std::uint8_t shard,
                   ColumnId id, Encoding encoding, std::uint64_t rows,
                   std::vector<ColumnRecord>& columns) {
  ColumnRecord rec;
  rec.shard = shard;
  rec.id = id;
  rec.encoding = encoding;
  rec.rows = rows;
  rec.offset = begin;
  rec.size = buf.size() - begin;
  rec.crc = crc32(buf.data() + begin, buf.size() - begin);
  columns.push_back(rec);
}

/// Encoded bytes + directory entries of one event shard (one system class).
struct ShardEncoding {
  std::string bytes;
  std::vector<ColumnRecord> columns;  ///< offsets relative to `bytes`
  std::vector<BlockRecord> blocks;
};

char system_family(const log::Inventory& inv, model::SystemId system) {
  return inv.systems[system.value()].disk_model.family;
}

/// Encodes the seven event columns of one class shard. Events are already in
/// canonical (time, disk, type) order.
ShardEncoding encode_event_shard(const log::Inventory& inv, std::uint8_t shard,
                                 std::span<const log::ClassifiedFailure> events) {
  ShardEncoding out;
  const auto rows = static_cast<std::uint64_t>(events.size());
  // time/varint is ~4 B per row at full scale; the six raw columns are 18 B.
  out.bytes.reserve(events.size() * 24 + 64);

  // kEventTime: delta of consecutive f64 bit patterns, zigzag + varint.
  // Times are sorted non-negative doubles, whose bit patterns sort the same
  // way, so deltas are small non-negative integers.
  std::size_t begin = out.bytes.size();
  std::int64_t prev = 0;
  for (const auto& e : events) {
    std::int64_t bits = 0;
    std::memcpy(&bits, &e.time, sizeof(bits));
    append_varint(out.bytes, zigzag_encode(bits - prev));
    prev = bits;
  }
  finish_column(out.bytes, begin, shard, ColumnId::kEventTime,
                Encoding::kDeltaVarint, rows, out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) append_u8(out.bytes, static_cast<std::uint8_t>(e.type));
  finish_column(out.bytes, begin, shard, ColumnId::kEventType, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) {
    append_u8(out.bytes, static_cast<std::uint8_t>(system_family(inv, e.system)));
  }
  finish_column(out.bytes, begin, shard, ColumnId::kEventFamily, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) append_u32(out.bytes, e.disk.value());
  finish_column(out.bytes, begin, shard, ColumnId::kEventDisk, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) append_u32(out.bytes, e.system.value());
  finish_column(out.bytes, begin, shard, ColumnId::kEventSystem, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) {
    append_u32(out.bytes, inv.disks[e.disk.value()].shelf.value());
  }
  finish_column(out.bytes, begin, shard, ColumnId::kEventShelf, Encoding::kRaw, rows,
                out.columns);

  pad_to_alignment(out.bytes);
  begin = out.bytes.size();
  for (const auto& e : events) {
    append_u32(out.bytes, inv.disks[e.disk.value()].raid_group.value());
  }
  finish_column(out.bytes, begin, shard, ColumnId::kEventRaidGroup, Encoding::kRaw,
                rows, out.columns);
  pad_to_alignment(out.bytes);

  // Time-window block index over this shard's canonical order.
  for (std::uint64_t row = 0; row < rows; row += kBlockRows) {
    BlockRecord block;
    block.shard = shard;
    block.row_begin = row;
    block.rows = std::min<std::uint64_t>(kBlockRows, rows - row);
    block.time_min = events[row].time;
    block.time_max = events[row + block.rows - 1].time;
    out.blocks.push_back(block);
  }
  return out;
}

/// One raw topology column: `fill(column, begin, end)` writes rows
/// [begin, end) into the column whose bytes start at `column`.
struct TopologyColumn {
  ColumnId id = ColumnId::kSysClass;
  std::size_t width = 0;
  std::function<void(char*, std::size_t, std::size_t)> fill;
};

/// The columns of one inventory table (systems, shelves, disks or RAID
/// groups), one row per record.
struct TopologyTable {
  std::size_t rows = 0;
  std::vector<TopologyColumn> columns;
};

/// The column holding `value(r)`, a fixed-width scalar, for every record r.
template <typename Records, typename Value>
TopologyColumn column(ColumnId id, const Records& records, Value value) {
  using Scalar = decltype(value(records.front()));
  return TopologyColumn{
      id, sizeof(Scalar), [&records, value](char* col, std::size_t begin, std::size_t end) {
        char* dst = col + begin * sizeof(Scalar);
        for (std::size_t r = begin; r < end; ++r, dst += sizeof(Scalar)) {
          store_le(dst, value(records[r]));
        }
      }};
}

/// The four topology tables, their 21 columns in directory order.
std::vector<TopologyTable> topology_tables(const log::Inventory& inv) {
  using Sys = log::InventorySystem;
  using Shelf = log::InventoryShelf;
  using Disk = log::InventoryDisk;
  using Group = log::InventoryRaidGroup;
  const auto& sys = inv.systems;
  const auto& shelves = inv.shelves;
  const auto& disks = inv.disks;
  const auto& groups = inv.raid_groups;
  std::vector<TopologyTable> tables(4);
  tables[0].rows = sys.size();
  tables[0].columns = {
      column(ColumnId::kSysClass, sys,
             [](const Sys& s) { return static_cast<std::uint8_t>(s.cls); }),
      column(ColumnId::kSysPaths, sys,
             [](const Sys& s) { return static_cast<std::uint8_t>(s.paths); }),
      column(ColumnId::kSysDiskFamily, sys,
             [](const Sys& s) { return static_cast<std::uint8_t>(s.disk_model.family); }),
      column(ColumnId::kSysDiskCap, sys,
             [](const Sys& s) { return static_cast<std::uint32_t>(s.disk_model.capacity_index); }),
      column(ColumnId::kSysShelfModel, sys,
             [](const Sys& s) { return static_cast<std::uint8_t>(s.shelf_model.letter); }),
      column(ColumnId::kSysDeploy, sys, [](const Sys& s) { return s.deploy_time; }),
      column(ColumnId::kSysCohort, sys, [](const Sys& s) { return s.cohort; }),
  };
  tables[1].rows = shelves.size();
  tables[1].columns = {
      column(ColumnId::kShelfSystem, shelves, [](const Shelf& sh) { return sh.system.value(); }),
      column(ColumnId::kShelfModel, shelves,
             [](const Shelf& sh) { return static_cast<std::uint8_t>(sh.model.letter); }),
  };
  tables[2].rows = disks.size();
  tables[2].columns = {
      column(ColumnId::kDiskFamily, disks,
             [](const Disk& d) { return static_cast<std::uint8_t>(d.model.family); }),
      column(ColumnId::kDiskCap, disks,
             [](const Disk& d) { return static_cast<std::uint32_t>(d.model.capacity_index); }),
      column(ColumnId::kDiskSystem, disks, [](const Disk& d) { return d.system.value(); }),
      column(ColumnId::kDiskShelf, disks, [](const Disk& d) { return d.shelf.value(); }),
      column(ColumnId::kDiskRaidGroup, disks, [](const Disk& d) { return d.raid_group.value(); }),
      column(ColumnId::kDiskSlot, disks, [](const Disk& d) { return d.slot; }),
      column(ColumnId::kDiskInstall, disks, [](const Disk& d) { return d.install_time; }),
      column(ColumnId::kDiskRemove, disks, [](const Disk& d) { return d.remove_time; }),
  };
  tables[3].rows = groups.size();
  tables[3].columns = {
      column(ColumnId::kRgSystem, groups, [](const Group& g) { return g.system.value(); }),
      column(ColumnId::kRgType, groups,
             [](const Group& g) { return static_cast<std::uint8_t>(g.type); }),
      column(ColumnId::kRgMembers, groups, [](const Group& g) { return g.member_count; }),
      column(ColumnId::kRgSpan, groups, [](const Group& g) { return g.shelf_span; }),
  };
  return tables;
}

/// Rows per fill block: a block's records stay in cache while every column
/// of the table is written from them.
constexpr std::size_t kFillBlockRows = 1024;

/// Appends the topology columns. Every column's offset and size is fixed up
/// front (alignment padding, then rows * width), and the image is resized
/// once, with room for `bytes_after` more bytes. Then, on the pool, each
/// table is filled in row ranges, every column of a row range at once, and
/// each column's CRC is taken over its own byte range. Every byte has one
/// writer at a fixed offset, so the scheduling never reaches the image.
void append_topology(std::string& image, const log::Inventory& inv,
                     std::vector<ColumnRecord>& columns, std::size_t bytes_after) {
  obs::Span span("store.build_image.topology");
  const std::vector<TopologyTable> tables = topology_tables(inv);
  const std::size_t first = columns.size();
  std::uint64_t image_end = image.size();
  for (const auto& table : tables) {
    for (const auto& col : table.columns) {
      ColumnRecord rec;
      rec.shard = kTopologyShard;
      rec.id = col.id;
      rec.rows = table.rows;
      rec.offset = (image_end + kColumnAlignment - 1) / kColumnAlignment * kColumnAlignment;
      rec.size = table.rows * col.width;
      image_end = rec.offset + rec.size;
      columns.push_back(rec);
    }
  }
  image.reserve(image_end + bytes_after);
  image.resize(image_end);  // zero-fills the padding

  std::size_t table_first = first;
  for (const auto& table : tables) {
    util::parallel_for(table.rows, [&](std::size_t begin, std::size_t end) {
      for (std::size_t lo = begin; lo < end; lo += kFillBlockRows) {
        const std::size_t hi = std::min(end, lo + kFillBlockRows);
        for (std::size_t c = 0; c < table.columns.size(); ++c) {
          table.columns[c].fill(image.data() + columns[table_first + c].offset, lo, hi);
        }
      }
    });
    table_first += table.columns.size();
  }

  // Columns are dealt to the workers round-robin, which spreads the wide
  // disk columns, adjacent in directory order, across all of them.
  const std::size_t workers = std::min<std::size_t>(util::thread_count(), columns.size() - first);
  util::parallel_for(workers, [&](std::size_t begin, std::size_t end) {
    for (std::size_t w = begin; w < end; ++w) {
      for (std::size_t c = first + w; c < columns.size(); c += workers) {
        columns[c].crc = crc32(image.data() + columns[c].offset, columns[c].size);
      }
    }
  });
}

void append_meta(std::string& out, const StoreMeta& meta) {
  for (const auto v : meta.sim_events_by_type) append_u64(out, v);
  append_u64(out, meta.sim_replacements);
  append_u64(out, meta.sim_triggered_disk_failures);
  append_u64(out, meta.sim_shelf_faults);
  append_u64(out, meta.sim_path_faults);
  append_u64(out, meta.sim_masked_path_faults);
  append_u64(out, meta.log_lines_written);
  append_u64(out, meta.log_lines_parsed);
  append_u64(out, meta.raid_records);
  append_u64(out, meta.failures_classified);
  append_u64(out, meta.duplicates_dropped);
  append_u64(out, meta.missing_disk_dropped);
}

/// Exposure table: one pass over the systems and one over the disks in id
/// order, through the shared accumulator.
void append_exposure(std::string& out, const log::Inventory& inv) {
  ExposureAccumulator acc(inv.horizon_seconds);
  for (const auto& sys : inv.systems) {
    acc.add_system(model::index_of(sys.cls), sys.disk_model.family);
  }
  for (const auto& d : inv.disks) {
    const auto& sys = inv.systems[d.system.value()];
    acc.add_disk(model::index_of(sys.cls), sys.disk_model.family, d.install_time,
                 d.remove_time);
  }
  const ExposureTable table = acc.table();

  append_f64(out, table.total_disk_years);
  for (const double years : table.class_disk_years) append_f64(out, years);
  for (const std::uint64_t n : table.class_system_count) append_u64(out, n);
  append_u32(out, static_cast<std::uint32_t>(table.family_disk_years.size()));
  for (const auto& [family, years] : table.family_disk_years) {
    append_u8(out, static_cast<std::uint8_t>(family));
    append_f64(out, years);
  }
  append_u32(out, static_cast<std::uint32_t>(table.class_family_disk_years.size()));
  for (const auto& [key, years] : table.class_family_disk_years) {
    append_u8(out, key.first);
    append_u8(out, static_cast<std::uint8_t>(key.second));
    append_f64(out, years);
  }
}

void append_directory(std::string& out, const std::vector<ColumnRecord>& columns) {
  append_u32(out, static_cast<std::uint32_t>(columns.size()));
  for (const auto& col : columns) {
    append_u8(out, col.shard);
    append_u16(out, static_cast<std::uint16_t>(col.id));
    append_u8(out, static_cast<std::uint8_t>(col.encoding));
    append_u64(out, col.rows);
    append_u64(out, col.offset);
    append_u64(out, col.size);
    append_u32(out, col.crc);
  }
}

void append_block_index(std::string& out, const std::vector<BlockRecord>& blocks) {
  append_u32(out, static_cast<std::uint32_t>(blocks.size()));
  for (const auto& block : blocks) {
    append_u8(out, block.shard);
    append_u64(out, block.row_begin);
    append_u64(out, block.rows);
    append_f64(out, block.time_min);
    append_f64(out, block.time_max);
  }
}

}  // namespace

Error build_store_image(const StoreContents& contents, std::string* image) {
  obs::Span span("store.build_image");
  if (contents.inventory == nullptr) {
    return make_error(ErrorCode::kBadValue, "writer: null inventory");
  }
  const log::Inventory& inv = *contents.inventory;

  // Validate references up front so encoding can index without checks.
  for (const auto& e : contents.events) {
    if (e.disk.value() >= inv.disks.size()) {
      return make_error(ErrorCode::kBadValue, "writer: event references unknown disk");
    }
    if (e.system.value() >= inv.systems.size()) {
      return make_error(ErrorCode::kBadValue, "writer: event references unknown system");
    }
  }

  // Canonical order: the classifier's global (time, disk, type) order. The
  // writer re-sorts unconditionally so the image is a pure function of the
  // event *set*, not of the order the caller happened to hold it in.
  std::vector<log::ClassifiedFailure> sorted(contents.events.begin(),
                                             contents.events.end());
  std::sort(sorted.begin(), sorted.end(), log::CanonicalOrder{});

  // Stable partition into one span per system class (partition preserves the
  // canonical order within each class).
  std::array<std::vector<log::ClassifiedFailure>, kClassCount> per_class;
  for (const auto& e : sorted) {
    per_class[model::index_of(inv.systems[e.system.value()].cls)].push_back(e);
  }

  // Encode the four class shards through the shared pool. Workers touch
  // disjoint slots of `shards`; the merge below walks class order, so the
  // image is independent of scheduling.
  std::array<ShardEncoding, kClassCount> shards;
  util::parallel_for(kClassCount, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      shards[s] = encode_event_shard(inv, static_cast<std::uint8_t>(s), per_class[s]);
    }
  });

  std::string out;
  out.append(kHeaderSize, '\0');  // patched last

  // Room for everything after the topology: the class shards with their
  // alignment padding, and the footer (meta, exposure table, directory and
  // block index) with margin.
  std::size_t bytes_after = 64 * 1024;
  for (const auto& shard : shards) {
    bytes_after += shard.bytes.size() + kColumnAlignment +
                   64 * (shard.columns.size() + shard.blocks.size());
  }
  std::vector<ColumnRecord> columns;
  append_topology(out, inv, columns, bytes_after);

  std::vector<BlockRecord> blocks;
  for (std::size_t s = 0; s < kClassCount; ++s) {
    pad_to_alignment(out);
    const std::uint64_t base = out.size();
    out.append(shards[s].bytes);
    for (ColumnRecord col : shards[s].columns) {
      col.offset += base;
      columns.push_back(col);
    }
    blocks.insert(blocks.end(), shards[s].blocks.begin(), shards[s].blocks.end());
  }

  pad_to_alignment(out);
  const std::uint64_t footer_offset = out.size();
  append_meta(out, contents.meta);
  append_exposure(out, inv);
  append_directory(out, columns);
  append_block_index(out, blocks);
  append_u32(out, crc32(out.data() + footer_offset, out.size() - footer_offset));
  const std::uint64_t footer_size = out.size() - footer_offset;

  Header header;
  header.file_size = out.size();
  header.footer_offset = footer_offset;
  header.footer_size = footer_size;
  header.seed = contents.seed;
  header.scale = contents.scale;
  header.horizon_seconds = inv.horizon_seconds;
  header.event_count = sorted.size();
  header.system_count = inv.systems.size();
  header.shelf_count = inv.shelves.size();
  header.disk_count = inv.disks.size();
  header.raid_group_count = inv.raid_groups.size();
  std::string head;
  head.reserve(kHeaderSize);
  append_header(head, header);
  out.replace(0, kHeaderSize, head);

  STORSIM_OBS_COUNTER(c_bytes, "store.write.bytes",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_bytes, out.size());
  STORSIM_OBS_COUNTER(c_cols, "store.write.columns",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_cols, columns.size());

  *image = std::move(out);
  return Error{};
}

Error write_store_file(const std::string& path, const StoreContents& contents) {
  std::string image;
  if (Error err = build_store_image(contents, &image); !err.ok()) return err;
  return write_file(path, image);
}

}  // namespace storsubsim::store
