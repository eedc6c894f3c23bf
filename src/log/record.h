// The vocabulary of a log record: its severity. A parsed record is a
// `LogView` (log/parser.h).
//
// The storage systems studied in the paper log informational and error
// events on each layer as a failure propagates upward (Fibre Channel ->
// SCSI -> RAID; paper Figure 3). We reproduce that shape: every record
// carries a layer-qualified message code like "fci.device.timeout" or
// "raid.config.filesystem.disk.missing", a severity, a timestamp, and the
// affected device.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace storsubsim::log {

enum class Severity : std::uint8_t { kInfo, kWarning, kError };

std::string_view to_string(Severity s);
std::optional<Severity> parse_severity(std::string_view s);

}  // namespace storsubsim::log
