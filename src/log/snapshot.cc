#include "log/snapshot.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>
#include <vector>

#include "model/fleet.h"
#include "model/time.h"

namespace storsubsim::log {

namespace {

using model::DiskId;
using model::RaidGroupId;
using model::ShelfId;
using model::SystemId;

/// Appends a time value the way the format spells it: %.3f, or "inf" for
/// the open-ended remove time of still-installed disks.
void append_time(LineWriter& out, double t) {
  if (std::isinf(t)) {
    out.text("inf");
  } else {
    out.fixed3(t);
  }
}

/// The "key=value" tokens of one line, split once, left to right, on ' '.
/// A token's key runs up to its first '='; a token without '=' has no key
/// and never matches. Lookups compare whole keys ("model" never matches
/// "disk-model"), and the first token with the asked-for key wins. One
/// reader serves every line of a parse, so its token list is allocated once.
class TokenReader {
 public:
  void split(std::string_view line) {
    tokens_.clear();
    std::size_t pos = 0;
    while (pos < line.size()) {
      std::size_t end = line.find(' ', pos);
      if (end == std::string_view::npos) end = line.size();
      const std::string_view token = line.substr(pos, end - pos);
      const std::size_t eq = token.find('=');
      if (eq != std::string_view::npos) {
        tokens_.emplace_back(token.substr(0, eq), token.substr(eq + 1));
      }
      pos = end + 1;
    }
  }

  /// The value of the first token whose key is `key`.
  std::optional<std::string_view> get(std::string_view key) const {
    for (const auto& [k, v] : tokens_) {
      if (k == key) return v;
    }
    return std::nullopt;
  }

  std::optional<std::uint32_t> get_u32(std::string_view key) const {
    const auto v = get(key);
    if (!v) return std::nullopt;
    if (*v == "-") return model::Id<model::DiskTag>::kInvalid;
    std::uint32_t out = 0;
    const auto [ptr, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
    if (ec != std::errc{} || ptr != v->data() + v->size()) return std::nullopt;
    return out;
  }

  std::optional<double> get_time(std::string_view key) const {
    const auto v = get(key);
    if (!v) return std::nullopt;
    if (*v == "inf") return std::numeric_limits<double>::infinity();
    double out = 0.0;
    const auto [ptr, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
    if (ec != std::errc{} || ptr != v->data() + v->size()) return std::nullopt;
    return out;
  }

 private:
  std::vector<std::pair<std::string_view, std::string_view>> tokens_;
};

/// How many of the `n` consecutive lines starting at line `first` lie
/// before line `line`: the id of a kind's first record at or after `line`.
std::size_t records_before(std::size_t line, std::size_t first, std::size_t n) {
  return std::clamp(line, first, first + n) - first;
}

/// Referential integrity over a whole inventory; empty when every
/// reference resolves.
std::string_view dangling_reference(const Inventory& inv) {
  for (const auto& sh : inv.shelves) {
    if (sh.system.value() >= inv.systems.size()) {
      return "snapshot: SHELF references unknown system";
    }
  }
  for (const auto& g : inv.raid_groups) {
    if (g.system.value() >= inv.systems.size()) {
      return "snapshot: GROUP references unknown system";
    }
  }
  for (const auto& d : inv.disks) {
    if (d.system.value() >= inv.systems.size() || d.shelf.value() >= inv.shelves.size() ||
        (d.raid_group.valid() && d.raid_group.value() >= inv.raid_groups.size())) {
      return "snapshot: DISK references unknown entity";
    }
  }
  return {};
}

/// Moves one record kind of every parsed slice, in slice order, into `into`.
/// When a single slice holds all of them its vector is moved, not copied;
/// otherwise each slice's vector is freed once copied.
template <typename Record>
void concat_records(std::vector<Record>& into, std::span<SnapshotParseResult> parsed,
                    std::vector<Record> Inventory::*kind) {
  std::size_t total = 0;
  for (const auto& p : parsed) total += (p.inventory.*kind).size();
  for (auto& p : parsed) {
    if ((p.inventory.*kind).size() == total) {
      into = std::move(p.inventory.*kind);
      return;
    }
  }
  into.reserve(total);
  for (auto& p : parsed) {
    std::vector<Record>& part = p.inventory.*kind;
    into.insert(into.end(), part.begin(), part.end());
    std::vector<Record>().swap(part);
  }
}

}  // namespace

double Inventory::disk_exposure_years(const InventoryDisk& disk) const {
  return model::exposure_years(disk.install_time, disk.remove_time, horizon_seconds);
}

SnapshotLayout SnapshotLayout::of(const model::Fleet& fleet) {
  return SnapshotLayout{fleet.systems().size(), fleet.shelves().size(),
                        fleet.raid_groups().size(), fleet.disks().size()};
}

SnapshotSlice SnapshotLayout::slice(std::size_t k, std::size_t count) const {
  const std::size_t total = lines();
  SnapshotSlice s;
  s.line_begin = total * k / count;
  s.line_end = total * (k + 1) / count;
  std::size_t first = 1;  // records start after the header line
  s.system_base = records_before(s.line_begin, first, systems);
  first += systems;
  s.shelf_base = records_before(s.line_begin, first, shelves);
  first += shelves;
  s.raid_group_base = records_before(s.line_begin, first, raid_groups);
  first += raid_groups;
  s.disk_base = records_before(s.line_begin, first, disks);
  s.has_header = s.line_begin == 0 && s.line_end > 0;
  s.has_end = s.line_begin < total && s.line_end == total;
  return s;
}

void write_snapshot_slice(LineWriter& out, const model::Fleet& fleet,
                          const SnapshotSlice& slice) {
  const std::size_t begin = slice.line_begin;
  const std::size_t end = slice.line_end;
  // The records of one kind whose lines fall inside the slice; `first` is
  // the line of the kind's record 0 and moves past the kind.
  std::size_t first = 1;
  auto in_slice = [&](auto records) {
    const std::size_t lo = records_before(begin, first, records.size());
    const std::size_t hi = records_before(end, first, records.size());
    first += records.size();
    return records.subspan(lo, hi - lo);
  };

  if (begin == 0 && end > 0) {
    out.text("SNAPSHOT horizon=");
    append_time(out, fleet.horizon_seconds());
    out.newline();
  }
  for (const auto& s : in_slice(fleet.systems())) {
    out.text("SYSTEM id=").u32(s.id.value());
    out.text(" class=").text(model::to_string(s.cls));
    out.text(" paths=").text(model::to_string(s.paths));
    out.text(" disk-model=").text(model::to_string(s.disk_model));
    out.text(" shelf-model=").text(model::to_string(s.shelf_model));
    out.text(" deploy=");
    append_time(out, s.deploy_time);
    out.text(" cohort=").u32(s.cohort).newline();
  }
  for (const auto& sh : in_slice(fleet.shelves())) {
    out.text("SHELF id=").u32(sh.id.value());
    out.text(" sys=").u32(sh.system.value());
    out.text(" model=").text(model::to_string(sh.model)).newline();
  }
  for (const auto& g : in_slice(fleet.raid_groups())) {
    out.text("GROUP id=").u32(g.id.value());
    out.text(" sys=").u32(g.system.value());
    out.text(" type=").text(model::to_string(g.type));
    out.text(" members=").u64(g.members.size());
    out.text(" span=").u32(g.shelf_span()).newline();
  }
  for (const auto& d : in_slice(fleet.disks())) {
    out.text("DISK id=").u32(d.id.value());
    out.text(" model=").text(model::to_string(d.model));
    out.text(" sys=").u32(d.system.value());
    out.text(" shelf=").u32(d.shelf.value());
    out.text(" group=");
    if (d.raid_group.valid()) {
      out.u32(d.raid_group.value());
    } else {
      out.ch('-');
    }
    out.text(" slot=").u32(d.slot);
    out.text(" install=");
    append_time(out, d.install_time);
    out.text(" remove=");
    append_time(out, d.remove_time);
    out.newline();
  }
  if (begin <= first && first < end) out.text("END\n");
}

void write_snapshot(LineWriter& out, const model::Fleet& fleet) {
  write_snapshot_slice(out, fleet, SnapshotSlice{});
}

Inventory inventory_from_fleet(const model::Fleet& fleet) {
  Inventory inv;
  inv.horizon_seconds = fleet.horizon_seconds();
  inv.systems.reserve(fleet.systems().size());
  for (const auto& s : fleet.systems()) {
    inv.systems.push_back(InventorySystem{s.id, s.cls, s.paths, s.disk_model, s.shelf_model,
                                          s.deploy_time, s.cohort});
  }
  inv.shelves.reserve(fleet.shelves().size());
  for (const auto& sh : fleet.shelves()) {
    inv.shelves.push_back(InventoryShelf{sh.id, sh.system, sh.model});
  }
  inv.raid_groups.reserve(fleet.raid_groups().size());
  for (const auto& g : fleet.raid_groups()) {
    inv.raid_groups.push_back(InventoryRaidGroup{
        g.id, g.system, g.type, static_cast<std::uint32_t>(g.members.size()), g.shelf_span()});
  }
  inv.disks.reserve(fleet.disks().size());
  for (const auto& d : fleet.disks()) {
    inv.disks.push_back(InventoryDisk{d.id, d.model, d.system, d.shelf, d.raid_group, d.slot,
                                      d.install_time, d.remove_time});
  }
  return inv;
}

SnapshotParseResult parse_snapshot_slice(std::string_view text, const SnapshotSlice& slice) {
  SnapshotParseResult result;
  result.lines = slice.line_begin;
  Inventory& inv = result.inventory;
  bool saw_header = false;
  bool saw_end = false;

  auto fail = [&](std::string_view why, std::string_view detail = {}) {
    LineWriter msg;
    msg.text("snapshot line ").u64(result.lines).text(": ").text(why).text(detail);
    result.error = msg.take();
  };

  TokenReader tokens;
  std::size_t pos = 0;
  while (pos < text.size() && !saw_end && result.ok()) {
    const auto nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, (nl == std::string_view::npos ? text.size() : nl) - pos);
    pos = (nl == std::string_view::npos) ? text.size() : nl + 1;

    ++result.lines;
    if (line.empty() || line[0] == '#') continue;
    tokens.split(line);

    if (line.starts_with("SNAPSHOT ")) {
      if (!slice.has_header) return fail("unexpected SNAPSHOT header"), result;
      const auto horizon = tokens.get_time("horizon");
      if (!horizon) return fail("bad SNAPSHOT header"), result;
      inv.horizon_seconds = *horizon;
      saw_header = true;
    } else if (line.starts_with("SYSTEM ")) {
      InventorySystem s;
      const auto id = tokens.get_u32("id");
      const auto cls = tokens.get("class");
      const auto paths = tokens.get("paths");
      const auto dm = tokens.get("disk-model");
      const auto sm = tokens.get("shelf-model");
      const auto deploy = tokens.get_time("deploy");
      const auto cohort = tokens.get_u32("cohort");
      if (!id || !cls || !paths || !dm || !sm || !deploy || !cohort) {
        return fail("bad SYSTEM record"), result;
      }
      const auto cls_v = model::parse_system_class(*cls);
      const auto paths_v = model::parse_path_config(*paths);
      const auto dm_v = model::parse_disk_model_name(*dm);
      const auto sm_v = model::parse_shelf_model_name(*sm);
      if (!cls_v || !paths_v || !dm_v || !sm_v) return fail("bad SYSTEM enum"), result;
      s.id = SystemId(*id);
      s.cls = *cls_v;
      s.paths = *paths_v;
      s.disk_model = *dm_v;
      s.shelf_model = *sm_v;
      s.deploy_time = *deploy;
      s.cohort = *cohort;
      if (s.id.value() != slice.system_base + inv.systems.size()) {
        return fail("SYSTEM ids not dense"), result;
      }
      inv.systems.push_back(s);
    } else if (line.starts_with("SHELF ")) {
      const auto id = tokens.get_u32("id");
      const auto sys = tokens.get_u32("sys");
      const auto m = tokens.get("model");
      if (!id || !sys || !m) return fail("bad SHELF record"), result;
      const auto m_v = model::parse_shelf_model_name(*m);
      if (!m_v) return fail("bad SHELF model"), result;
      if (*id != slice.shelf_base + inv.shelves.size()) return fail("SHELF ids not dense"), result;
      inv.shelves.push_back(InventoryShelf{ShelfId(*id), SystemId(*sys), *m_v});
    } else if (line.starts_with("GROUP ")) {
      const auto id = tokens.get_u32("id");
      const auto sys = tokens.get_u32("sys");
      const auto type = tokens.get("type");
      const auto members = tokens.get_u32("members");
      const auto span = tokens.get_u32("span");
      if (!id || !sys || !type || !members || !span) return fail("bad GROUP record"), result;
      const auto type_v = model::parse_raid_type(*type);
      if (!type_v) return fail("bad GROUP type"), result;
      if (*id != slice.raid_group_base + inv.raid_groups.size()) {
        return fail("GROUP ids not dense"), result;
      }
      inv.raid_groups.push_back(
          InventoryRaidGroup{RaidGroupId(*id), SystemId(*sys), *type_v, *members, *span});
    } else if (line.starts_with("DISK ")) {
      const auto id = tokens.get_u32("id");
      const auto m = tokens.get("model");
      const auto sys = tokens.get_u32("sys");
      const auto shelf = tokens.get_u32("shelf");
      const auto group = tokens.get_u32("group");
      const auto slot = tokens.get_u32("slot");
      const auto install = tokens.get_time("install");
      const auto remove = tokens.get_time("remove");
      if (!id || !m || !sys || !shelf || !group || !slot || !install || !remove) {
        return fail("bad DISK record"), result;
      }
      const auto m_v = model::parse_disk_model_name(*m);
      if (!m_v) return fail("bad DISK model"), result;
      if (*id != slice.disk_base + inv.disks.size()) return fail("DISK ids not dense"), result;
      inv.disks.push_back(InventoryDisk{DiskId(*id), *m_v, SystemId(*sys), ShelfId(*shelf),
                                        RaidGroupId(*group), *slot, *install, *remove});
    } else if (line == "END") {
      if (!slice.has_end) return fail("unexpected END"), result;
      saw_end = true;
    } else {
      return fail("unrecognized record: ", line.substr(0, 32)), result;
    }
  }

  if (slice.has_header && !saw_header) {
    result.error = "snapshot: missing SNAPSHOT header";
  } else if (slice.has_end && !saw_end) {
    result.error = "snapshot: missing END marker";
  }
  return result;
}

SnapshotParseResult merge_snapshot_slices(std::span<const SnapshotSlice> slices,
                                          std::span<SnapshotParseResult> parsed) {
  for (auto& p : parsed) {
    if (!p.ok()) return std::move(p);
  }
  SnapshotParseResult result;
  // Each slice's ids were checked dense from its bases; the slices join
  // densely when every base is where the previous slices' records end.
  std::size_t systems = 0, shelves = 0, raid_groups = 0, disks = 0;
  for (std::size_t k = 0; k < slices.size(); ++k) {
    const SnapshotSlice& slice = slices[k];
    if (slice.system_base != systems || slice.shelf_base != shelves ||
        slice.raid_group_base != raid_groups || slice.disk_base != disks) {
      LineWriter msg;
      msg.text("snapshot line ")
          .u64(slice.line_begin + 1)
          .text(": slice does not continue the previous one");
      result.error = msg.take();
      return result;
    }
    const Inventory& part = parsed[k].inventory;
    systems += part.systems.size();
    shelves += part.shelves.size();
    raid_groups += part.raid_groups.size();
    disks += part.disks.size();
    if (slice.has_header) result.inventory.horizon_seconds = part.horizon_seconds;
    result.lines = parsed[k].lines;
  }
  Inventory& inv = result.inventory;
  concat_records(inv.systems, parsed, &Inventory::systems);
  concat_records(inv.shelves, parsed, &Inventory::shelves);
  concat_records(inv.raid_groups, parsed, &Inventory::raid_groups);
  concat_records(inv.disks, parsed, &Inventory::disks);
  result.error = dangling_reference(inv);
  return result;
}

SnapshotParseResult parse_snapshot(std::string_view text) {
  const SnapshotSlice whole;
  SnapshotParseResult parsed = parse_snapshot_slice(text, whole);
  return merge_snapshot_slices({&whole, 1}, {&parsed, 1});
}

}  // namespace storsubsim::log
