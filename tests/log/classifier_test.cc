// Classifier: only RAID-layer terminals count, de-duplication windows,
// ordering, and robustness to incomplete records.
#include "log/classifier.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "log/codes.h"
#include "log/emitter.h"
#include "log/line_writer.h"
#include "log/parser.h"

namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;

namespace {

log_ns::LogView raid_record(double t, std::uint32_t disk, model::FailureType type) {
  log_ns::LogView r;
  r.time = t;
  r.code_id = log_ns::raid_terminal_for(type);
  r.code = log_ns::code_name(r.code_id);
  r.severity = log_ns::Severity::kError;
  r.disk = model::DiskId(disk);
  r.system = model::SystemId(1);
  r.message = "x";
  return r;
}

}  // namespace

TEST(Classifier, CountsOnlyRaidTerminals) {
  log_ns::LineWriter text;
  log_ns::emit_chain(text, log_ns::FailureLineInput{1000.0,
                                                    model::FailureType::kPhysicalInterconnect,
                                                    model::DiskId(5), model::SystemId(2), "1.16",
                                                    "S"});
  std::vector<log_ns::LogView> chain;
  log_ns::parse_text(text.view(), chain);
  ASSERT_EQ(chain.size(), 6u);  // 1 terminal

  log_ns::ClassifierStats stats;
  const auto failures = log_ns::classify(chain, {}, &stats);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].type, model::FailureType::kPhysicalInterconnect);
  EXPECT_EQ(failures[0].disk, model::DiskId(5));
  EXPECT_DOUBLE_EQ(failures[0].time, 1000.0);
  EXPECT_EQ(stats.raid_records, 1u);
}

TEST(Classifier, DeduplicatesWithinWindow) {
  std::vector<log_ns::LogView> records = {
      raid_record(100.0, 9, model::FailureType::kDisk),
      raid_record(150.0, 9, model::FailureType::kDisk),   // duplicate (50 s later)
      raid_record(100.0, 9, model::FailureType::kDisk),   // exact duplicate
      raid_record(9000.0, 9, model::FailureType::kDisk),  // beyond 600 s window
  };
  log_ns::ClassifierStats stats;
  const auto failures = log_ns::classify(records, {}, &stats);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_DOUBLE_EQ(failures[0].time, 100.0);
  EXPECT_DOUBLE_EQ(failures[1].time, 9000.0);
  EXPECT_EQ(stats.duplicates_dropped, 2u);
}

TEST(Classifier, DifferentTypesNotDeduplicated) {
  const std::vector<log_ns::LogView> records = {
      raid_record(100.0, 9, model::FailureType::kDisk),
      raid_record(120.0, 9, model::FailureType::kPhysicalInterconnect),
      raid_record(130.0, 9, model::FailureType::kProtocol),
  };
  EXPECT_EQ(log_ns::classify(records).size(), 3u);
}

TEST(Classifier, DifferentDisksNotDeduplicated) {
  const std::vector<log_ns::LogView> records = {
      raid_record(100.0, 1, model::FailureType::kDisk),
      raid_record(101.0, 2, model::FailureType::kDisk),
  };
  EXPECT_EQ(log_ns::classify(records).size(), 2u);
}

TEST(Classifier, OutOfOrderInputSorted) {
  const std::vector<log_ns::LogView> records = {
      raid_record(5000.0, 2, model::FailureType::kProtocol),
      raid_record(100.0, 1, model::FailureType::kDisk),
      raid_record(2500.0, 3, model::FailureType::kPerformance),
  };
  const auto failures = log_ns::classify(records);
  ASSERT_EQ(failures.size(), 3u);
  EXPECT_TRUE(std::is_sorted(failures.begin(), failures.end(),
                             [](const auto& a, const auto& b) { return a.time < b.time; }));
}

TEST(Classifier, DropsRecordsWithoutDiskId) {
  auto orphan = raid_record(100.0, 0, model::FailureType::kDisk);
  orphan.disk = model::DiskId{};
  log_ns::ClassifierStats stats;
  const auto failures = log_ns::classify(std::vector<log_ns::LogView>{orphan}, {}, &stats);
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(stats.missing_disk_dropped, 1u);
}

TEST(Classifier, CustomWindow) {
  const std::vector<log_ns::LogView> records = {
      raid_record(100.0, 9, model::FailureType::kDisk),
      raid_record(150.0, 9, model::FailureType::kDisk),
  };
  log_ns::ClassifierOptions options;
  options.dedup_window_seconds = 10.0;  // narrow window: both survive
  EXPECT_EQ(log_ns::classify(records, options).size(), 2u);
}

TEST(Classifier, RepeatedDuplicatesSlideTheWindow) {
  // Repeats every 400 s with a 600 s window: each kept event anchors the
  // window, so the 400 s repeats collapse but the 1300 s one survives.
  const std::vector<log_ns::LogView> records = {
      raid_record(0.0, 9, model::FailureType::kDisk),
      raid_record(400.0, 9, model::FailureType::kDisk),
      raid_record(1300.0, 9, model::FailureType::kDisk),
  };
  const auto failures = log_ns::classify(records);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_DOUBLE_EQ(failures[1].time, 1300.0);
}

TEST(Classifier, StatsArePinnedForMixedCorpus) {
  // Exact stats over a hand-built corpus; any change in counting semantics
  // (what is a RAID record, what dedups, what is dropped) shows up here.
  std::vector<log_ns::LogView> records = {
      raid_record(100.0, 9, model::FailureType::kDisk),
      raid_record(150.0, 9, model::FailureType::kDisk),    // dup, 50 s later
      raid_record(9000.0, 9, model::FailureType::kDisk),   // beyond window
      raid_record(9100.0, 11, model::FailureType::kProtocol),
  };
  auto orphan = raid_record(200.0, 0, model::FailureType::kPerformance);
  orphan.disk = model::DiskId{};
  records.push_back(orphan);
  log_ns::LogView precursor;  // below the RAID layer: not a terminal
  precursor.time = 120.0;
  precursor.code_id = log_ns::EventCode::kScsiSlowResponse;
  precursor.code = log_ns::code_name(precursor.code_id);
  precursor.severity = log_ns::Severity::kWarning;
  precursor.disk = model::DiskId(9);
  precursor.system = model::SystemId(1);
  precursor.message = "x";
  records.push_back(precursor);

  log_ns::ClassifierStats stats;
  const auto failures = log_ns::classify(records, {}, &stats);
  EXPECT_EQ(failures.size(), 3u);
  EXPECT_EQ(stats.raid_records, 5u);
  EXPECT_EQ(stats.duplicates_dropped, 1u);
  EXPECT_EQ(stats.missing_disk_dropped, 1u);
}
