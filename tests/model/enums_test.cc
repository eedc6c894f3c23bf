// Enum string conversions round-trip; parsing rejects junk.
#include "model/enums.h"

#include <gtest/gtest.h>

namespace model = storsubsim::model;

TEST(Enums, SystemClassRoundTrip) {
  for (const auto c : model::kAllSystemClasses) {
    const auto parsed = model::parse_system_class(model::to_string(c));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, c);
  }
  EXPECT_FALSE(model::parse_system_class("petabyte-tier").has_value());
  EXPECT_FALSE(model::parse_system_class("").has_value());
}

TEST(Enums, FailureTypeRoundTrip) {
  for (const auto t : model::kAllFailureTypes) {
    const auto parsed = model::parse_failure_type(model::to_string(t));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(model::parse_failure_type("disk-ish").has_value());
}

TEST(Enums, DiskTypeRoundTrip) {
  // Disk types are rendered (Table 1's disk-type column) and never parsed
  // back: the two names are fixed and distinct.
  EXPECT_EQ(model::to_string(model::DiskType::kSata), "SATA");
  EXPECT_EQ(model::to_string(model::DiskType::kFc), "FC");
}

TEST(Enums, RaidTypeRoundTrip) {
  EXPECT_EQ(model::parse_raid_type("RAID4"), model::RaidType::kRaid4);
  EXPECT_EQ(model::parse_raid_type("RAID6"), model::RaidType::kRaid6);
  EXPECT_FALSE(model::parse_raid_type("RAID5").has_value());
}

TEST(Enums, PathConfigRoundTrip) {
  for (const auto p : {model::PathConfig::kSinglePath, model::PathConfig::kDualPath}) {
    const auto parsed = model::parse_path_config(model::to_string(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(model::parse_path_config("triple-path").has_value());
}

TEST(Enums, FailureTypeIndexing) {
  EXPECT_EQ(model::index_of(model::FailureType::kDisk), 0u);
  EXPECT_EQ(model::index_of(model::FailureType::kPhysicalInterconnect), 1u);
  EXPECT_EQ(model::index_of(model::FailureType::kProtocol), 2u);
  EXPECT_EQ(model::index_of(model::FailureType::kPerformance), 3u);
  EXPECT_EQ(model::kAllFailureTypes.size(), 4u);
}
