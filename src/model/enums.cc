#include "model/enums.h"

namespace storsubsim::model {

std::string_view to_string(SystemClass c) {
  switch (c) {
    case SystemClass::kNearLine: return "near-line";
    case SystemClass::kLowEnd: return "low-end";
    case SystemClass::kMidRange: return "mid-range";
    case SystemClass::kHighEnd: return "high-end";
  }
  return "unknown";
}

std::string_view to_string(DiskType t) {
  switch (t) {
    case DiskType::kSata: return "SATA";
    case DiskType::kFc: return "FC";
  }
  return "unknown";
}

std::string_view to_string(RaidType t) {
  switch (t) {
    case RaidType::kRaid4: return "RAID4";
    case RaidType::kRaid6: return "RAID6";
  }
  return "unknown";
}

std::string_view to_string(FailureType t) {
  switch (t) {
    case FailureType::kDisk: return "disk";
    case FailureType::kPhysicalInterconnect: return "physical-interconnect";
    case FailureType::kProtocol: return "protocol";
    case FailureType::kPerformance: return "performance";
  }
  return "unknown";
}

std::string_view to_string(PathConfig p) {
  switch (p) {
    case PathConfig::kSinglePath: return "single-path";
    case PathConfig::kDualPath: return "dual-path";
  }
  return "unknown";
}

std::optional<SystemClass> parse_system_class(std::string_view s) {
  for (const auto c : kAllSystemClasses) {
    if (s == to_string(c)) return c;
  }
  return std::nullopt;
}

std::optional<RaidType> parse_raid_type(std::string_view s) {
  if (s == "RAID4") return RaidType::kRaid4;
  if (s == "RAID6") return RaidType::kRaid6;
  return std::nullopt;
}

std::optional<FailureType> parse_failure_type(std::string_view s) {
  for (const auto t : kAllFailureTypes) {
    if (s == to_string(t)) return t;
  }
  return std::nullopt;
}

std::optional<PathConfig> parse_path_config(std::string_view s) {
  if (s == to_string(PathConfig::kSinglePath)) return PathConfig::kSinglePath;
  if (s == to_string(PathConfig::kDualPath)) return PathConfig::kDualPath;
  return std::nullopt;
}

}  // namespace storsubsim::model
