// Snapshot round-trips (fleet -> text -> inventory), corruption handling,
// and exposure math on the parsed inventory.
#include "log/snapshot.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/fleet.h"

namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;

namespace {

model::Fleet test_fleet(std::uint64_t seed = 3) {
  model::CohortSpec cohort;
  cohort.label = "snap";
  cohort.cls = model::SystemClass::kHighEnd;
  cohort.shelf_model = {'B'};
  cohort.disk_mix = {{{'F', 1}, 1.0}};
  cohort.num_systems = 20;
  cohort.mean_shelves_per_system = 3.0;
  cohort.mean_disks_per_shelf = 9.0;
  cohort.raid_group_size = 7;
  cohort.raid_span_shelves = 2;
  cohort.dual_path_fraction = 0.5;
  return model::Fleet::build(
      model::single_cohort_config(cohort, model::from_years(2.0), seed));
}

}  // namespace

TEST(Snapshot, RoundTripMatchesDirectInventory) {
  auto fleet = test_fleet();
  // Exercise the replacement path so retired records round-trip too.
  const auto disk = fleet.shelves()[0].slots[0];
  const double deploy = fleet.system(fleet.shelves()[0].system).deploy_time;
  fleet.replace_disk(disk, deploy + 5000.0, deploy + 9000.0);

  log_ns::LineWriter text;
  log_ns::write_snapshot(text, fleet);
  const auto parsed = log_ns::parse_snapshot(text.view());
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  const auto direct = log_ns::inventory_from_fleet(fleet);
  const auto& inv = parsed.inventory;
  ASSERT_EQ(inv.systems.size(), direct.systems.size());
  ASSERT_EQ(inv.shelves.size(), direct.shelves.size());
  ASSERT_EQ(inv.disks.size(), direct.disks.size());
  ASSERT_EQ(inv.raid_groups.size(), direct.raid_groups.size());
  EXPECT_DOUBLE_EQ(inv.horizon_seconds, direct.horizon_seconds);

  for (std::size_t i = 0; i < inv.systems.size(); ++i) {
    EXPECT_EQ(inv.systems[i].cls, direct.systems[i].cls);
    EXPECT_EQ(inv.systems[i].paths, direct.systems[i].paths);
    EXPECT_EQ(inv.systems[i].disk_model, direct.systems[i].disk_model);
    EXPECT_EQ(inv.systems[i].shelf_model, direct.systems[i].shelf_model);
    EXPECT_NEAR(inv.systems[i].deploy_time, direct.systems[i].deploy_time, 1e-2);
    EXPECT_EQ(inv.systems[i].cohort, direct.systems[i].cohort);
  }
  for (std::size_t i = 0; i < inv.disks.size(); ++i) {
    EXPECT_EQ(inv.disks[i].model, direct.disks[i].model);
    EXPECT_EQ(inv.disks[i].system, direct.disks[i].system);
    EXPECT_EQ(inv.disks[i].shelf, direct.disks[i].shelf);
    EXPECT_EQ(inv.disks[i].raid_group, direct.disks[i].raid_group);
    EXPECT_EQ(inv.disks[i].slot, direct.disks[i].slot);
    EXPECT_NEAR(inv.disks[i].install_time, direct.disks[i].install_time, 1e-2);
    if (std::isinf(direct.disks[i].remove_time)) {
      EXPECT_TRUE(std::isinf(inv.disks[i].remove_time));
    } else {
      EXPECT_NEAR(inv.disks[i].remove_time, direct.disks[i].remove_time, 1e-2);
    }
  }
  for (std::size_t i = 0; i < inv.raid_groups.size(); ++i) {
    EXPECT_EQ(inv.raid_groups[i].type, direct.raid_groups[i].type);
    EXPECT_EQ(inv.raid_groups[i].member_count, direct.raid_groups[i].member_count);
    EXPECT_EQ(inv.raid_groups[i].shelf_span, direct.raid_groups[i].shelf_span);
  }
}

TEST(Snapshot, ExposureMatchesFleet) {
  const auto fleet = test_fleet(9);
  const auto inv = log_ns::inventory_from_fleet(fleet);
  double total = 0.0;
  for (const auto& d : inv.disks) total += inv.disk_exposure_years(d);
  EXPECT_NEAR(total, fleet.total_disk_exposure_years(), 1e-9);
}

TEST(Snapshot, MissingHeaderRejected) {
  const std::string text("SYSTEM id=0 class=low-end paths=single-path disk-model=A-2 "
                          "shelf-model=A deploy=0.0 cohort=0\nEND\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
}

TEST(Snapshot, MissingEndRejected) {
  const auto fleet = test_fleet();
  log_ns::LineWriter text;
  log_ns::write_snapshot(text, fleet);
  std::string s = text.take();
  s.resize(s.size() - 4);  // drop "END\n"
  const auto parsed = log_ns::parse_snapshot(s);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("END"), std::string::npos);
}

TEST(Snapshot, CorruptFieldRejectedWithLineNumber) {
  const std::string text(
      "SNAPSHOT horizon=1000.0\n"
      "SYSTEM id=0 class=warp-core paths=single-path disk-model=A-2 shelf-model=A "
      "deploy=0.0 cohort=0\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("line 2"), std::string::npos);
}

TEST(Snapshot, NonDenseIdsRejected) {
  const std::string text(
      "SNAPSHOT horizon=1000.0\n"
      "SYSTEM id=5 class=low-end paths=single-path disk-model=A-2 shelf-model=A "
      "deploy=0.0 cohort=0\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("dense"), std::string::npos);
}

TEST(Snapshot, DanglingReferenceRejected) {
  const std::string text(
      "SNAPSHOT horizon=1000.0\n"
      "SYSTEM id=0 class=low-end paths=single-path disk-model=A-2 shelf-model=A "
      "deploy=0.0 cohort=0\n"
      "SHELF id=0 sys=9 model=A\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("unknown system"), std::string::npos);
}

TEST(Snapshot, UnknownRecordTypeRejected) {
  const std::string text(
      "SNAPSHOT horizon=1000.0\n"
      "FLUX id=0 capacitance=1.21\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("unrecognized"), std::string::npos);
}

TEST(Snapshot, CommentsAndBlankLinesIgnored) {
  const std::string text(
      "# generated by storsubsim\n"
      "\n"
      "SNAPSHOT horizon=1000.0\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_TRUE(parsed.inventory.systems.empty());
}

TEST(Snapshot, KeysMatchWholeTokensFirstWins) {
  // Keys in any order parse, a repeated key takes its first value, and
  // "model=" is never read out of "disk-model=" or "shelf-model=".
  const auto parsed = log_ns::parse_snapshot(
      "SNAPSHOT horizon=1000.0\n"
      "SYSTEM cohort=4 deploy=0.0 shelf-model=A disk-model=A-2 paths=single-path "
      "class=low-end id=0 class=high-end\n"
      "SHELF shelf-model=B model=A sys=0 id=0\n"
      "DISK disk-model=B-1 remove=inf install=0.0 slot=3 group=- shelf=0 sys=0 "
      "model=A-2 id=0 id=7\n"
      "END\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const auto& inv = parsed.inventory;
  ASSERT_EQ(inv.systems.size(), 1u);
  EXPECT_EQ(inv.systems[0].cls, model::SystemClass::kLowEnd);
  EXPECT_EQ(inv.systems[0].cohort, 4u);
  ASSERT_EQ(inv.shelves.size(), 1u);
  EXPECT_EQ(model::to_string(inv.shelves[0].model), "A");
  ASSERT_EQ(inv.disks.size(), 1u);
  EXPECT_EQ(model::to_string(inv.disks[0].model), "A-2");
  EXPECT_EQ(inv.disks[0].slot, 3u);
  EXPECT_FALSE(inv.disks[0].raid_group.valid());

  // A key with no '=' is missing, as is a key that only ends a longer one.
  const std::string system_line =
      "SYSTEM id=0 class=low-end paths=single-path disk-model=A-2 shelf-model=A "
      "deploy=0.0 cohort=0\n";
  for (const char* shelf : {"SHELF id=0 sys=0 model\n", "SHELF id=0 sys=0 shelf-model=A\n"}) {
    const auto rejected =
        log_ns::parse_snapshot("SNAPSHOT horizon=1000.0\n" + system_line + shelf + "END\n");
    EXPECT_FALSE(rejected.ok()) << shelf;
    EXPECT_NE(rejected.error.find("bad SHELF record"), std::string::npos) << rejected.error;
  }
}

// --- line-range slices ------------------------------------------------------

namespace {

/// A test fleet with one retired disk record, so every record kind and the
/// replacement path appear in the text.
model::Fleet sliced_fleet() {
  auto fleet = test_fleet(5);
  const auto disk = fleet.shelves()[0].slots[0];
  const double deploy = fleet.system(fleet.shelves()[0].system).deploy_time;
  fleet.replace_disk(disk, deploy + 5000.0, deploy + 9000.0);
  return fleet;
}

std::string slice_text(const model::Fleet& fleet, const log_ns::SnapshotSlice& slice) {
  log_ns::LineWriter out;
  log_ns::write_snapshot_slice(out, fleet, slice);
  return out.take();
}

/// Slice counts: one, a few even and uneven ones, and more than the lines.
std::vector<std::size_t> slice_counts(const log_ns::SnapshotLayout& layout) {
  return {1, 2, 3, 4, 7, layout.lines() + 3};
}

/// Reports the first record that differs, kind by kind.
template <typename Record>
void expect_same_records(const std::vector<Record>& got, const std::vector<Record>& want,
                         const char* kind) {
  ASSERT_EQ(got.size(), want.size()) << kind;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i] == want[i]) << kind << " " << i;
  }
}

}  // namespace

TEST(SnapshotSlices, ConcatenatedSlicesEqualTheWholeText) {
  const auto fleet = sliced_fleet();
  log_ns::LineWriter whole;
  log_ns::write_snapshot(whole, fleet);
  const auto layout = log_ns::SnapshotLayout::of(fleet);
  ASSERT_EQ(static_cast<std::size_t>(std::count(whole.view().begin(), whole.view().end(), '\n')),
            layout.lines());

  for (const std::size_t count : slice_counts(layout)) {
    std::string joined;
    std::size_t next_line = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const auto slice = layout.slice(k, count);
      EXPECT_EQ(slice.line_begin, next_line) << count << " slices, slice " << k;
      next_line = slice.line_end;
      joined += slice_text(fleet, slice);
    }
    EXPECT_EQ(next_line, layout.lines()) << count << " slices";
    EXPECT_EQ(joined, whole.view()) << count << " slices";
  }
}

TEST(SnapshotSlices, MergedSlicedParseEqualsTheWholeParse) {
  const auto fleet = sliced_fleet();
  log_ns::LineWriter whole;
  log_ns::write_snapshot(whole, fleet);
  const auto reference = log_ns::parse_snapshot(whole.view());
  ASSERT_TRUE(reference.ok()) << reference.error;
  const auto layout = log_ns::SnapshotLayout::of(fleet);

  for (const std::size_t count : slice_counts(layout)) {
    std::vector<log_ns::SnapshotSlice> slices;
    std::vector<log_ns::SnapshotParseResult> parsed;
    for (std::size_t k = 0; k < count; ++k) {
      slices.push_back(layout.slice(k, count));
      parsed.push_back(log_ns::parse_snapshot_slice(slice_text(fleet, slices.back()),
                                                    slices.back()));
      ASSERT_TRUE(parsed.back().ok()) << count << " slices, slice " << k << ": "
                                      << parsed.back().error;
    }
    const auto merged = log_ns::merge_snapshot_slices(slices, parsed);
    ASSERT_TRUE(merged.ok()) << merged.error;
    const auto& got = merged.inventory;
    const auto& want = reference.inventory;
    EXPECT_EQ(got.horizon_seconds, want.horizon_seconds) << count << " slices";
    EXPECT_EQ(merged.lines, reference.lines) << count << " slices";
    expect_same_records(got.systems, want.systems, "SYSTEM");
    expect_same_records(got.shelves, want.shelves, "SHELF");
    expect_same_records(got.raid_groups, want.raid_groups, "GROUP");
    expect_same_records(got.disks, want.disks, "DISK");
  }
}

TEST(SnapshotSlices, FirstIdOffItsBaseIsRejectedAsNotDense) {
  const auto fleet = sliced_fleet();
  const auto layout = log_ns::SnapshotLayout::of(fleet);
  auto slice = layout.slice(2, 3);
  const std::size_t first_disk_line =
      1 + layout.systems + layout.shelves + layout.raid_groups;
  ASSERT_GT(slice.line_begin, first_disk_line);  // the slice starts among the disks
  ASSERT_EQ(slice.disk_base, slice.line_begin - first_disk_line);
  const std::string text = slice_text(fleet, slice);

  slice.disk_base += 1;
  const auto parsed = log_ns::parse_snapshot_slice(text, slice);
  ASSERT_FALSE(parsed.ok());
  log_ns::LineWriter want;
  want.text("snapshot line ").u64(slice.line_begin + 1).text(": DISK ids not dense");
  EXPECT_EQ(parsed.error, want.view());
}

TEST(SnapshotSlices, SliceThatDoesNotContinueThePreviousOneIsRejected) {
  const auto fleet = sliced_fleet();
  const auto layout = log_ns::SnapshotLayout::of(fleet);
  // Slices 0 and 2 of 3, without slice 1: each parses, the join does not.
  std::vector<log_ns::SnapshotSlice> slices = {layout.slice(0, 3), layout.slice(2, 3)};
  std::vector<log_ns::SnapshotParseResult> parsed;
  for (const auto& slice : slices) {
    parsed.push_back(log_ns::parse_snapshot_slice(slice_text(fleet, slice), slice));
    ASSERT_TRUE(parsed.back().ok()) << parsed.back().error;
  }
  const auto merged = log_ns::merge_snapshot_slices(slices, parsed);
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.error.find("does not continue"), std::string::npos) << merged.error;
}

TEST(SnapshotSlices, CrossSliceDanglingReferenceIsCaughtByTheMerge) {
  const auto fleet = sliced_fleet();
  const auto layout = log_ns::SnapshotLayout::of(fleet);
  std::vector<log_ns::SnapshotSlice> slices = {layout.slice(0, 2), layout.slice(1, 2)};
  std::vector<std::string> texts = {slice_text(fleet, slices[0]), slice_text(fleet, slices[1])};
  // Point the second slice's first disk at a shelf no slice defines. The
  // slice alone cannot tell: shelves live in the first slice.
  const std::size_t shelf = texts[1].find(" shelf=");
  ASSERT_NE(shelf, std::string::npos);
  texts[1].replace(shelf, 7, " shelf=99999");

  std::vector<log_ns::SnapshotParseResult> parsed;
  for (std::size_t k = 0; k < 2; ++k) {
    parsed.push_back(log_ns::parse_snapshot_slice(texts[k], slices[k]));
    ASSERT_TRUE(parsed.back().ok()) << parsed.back().error;
  }
  const auto merged = log_ns::merge_snapshot_slices(slices, parsed);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.error, "snapshot: DISK references unknown entity");
}

TEST(SnapshotSlices, EmptySlicesCarryTheHeaderAndEndCorrectly) {
  const auto fleet = sliced_fleet();
  const auto layout = log_ns::SnapshotLayout::of(fleet);
  const std::size_t count = layout.lines() + 3;
  std::size_t headers = 0;
  std::size_t ends = 0;
  std::size_t empty = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const auto slice = layout.slice(k, count);
    const std::string text = slice_text(fleet, slice);
    headers += slice.has_header ? 1 : 0;
    ends += slice.has_end ? 1 : 0;
    if (slice.line_begin == slice.line_end) {
      ++empty;
      EXPECT_TRUE(text.empty()) << "slice " << k;
      EXPECT_FALSE(slice.has_header || slice.has_end) << "slice " << k;
      const auto parsed = log_ns::parse_snapshot_slice(text, slice);
      EXPECT_TRUE(parsed.ok()) << parsed.error;
      EXPECT_TRUE(parsed.inventory.systems.empty() && parsed.inventory.shelves.empty() &&
                  parsed.inventory.raid_groups.empty() && parsed.inventory.disks.empty())
          << "slice " << k;
      continue;
    }
    EXPECT_EQ(slice.has_header, text.starts_with("SNAPSHOT ")) << "slice " << k;
    EXPECT_EQ(slice.has_end, text == "END\n") << "slice " << k;
  }
  EXPECT_EQ(headers, 1u);
  EXPECT_EQ(ends, 1u);
  EXPECT_EQ(empty, 3u);

  // A header in a slice without line 0, or END in a slice without the last
  // line, is out of place; a slice with line 0 must hold the header.
  const auto middle = layout.slice(1, 3);
  const auto stray_header = log_ns::parse_snapshot_slice("SNAPSHOT horizon=1.000\n", middle);
  EXPECT_NE(stray_header.error.find("unexpected SNAPSHOT header"), std::string::npos)
      << stray_header.error;
  const auto stray_end = log_ns::parse_snapshot_slice("END\n", middle);
  EXPECT_NE(stray_end.error.find("unexpected END"), std::string::npos) << stray_end.error;
  const auto headless = log_ns::parse_snapshot_slice("", layout.slice(0, 3));
  EXPECT_EQ(headless.error, "snapshot: missing SNAPSHOT header");
}
