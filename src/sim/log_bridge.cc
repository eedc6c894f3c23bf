#include "sim/log_bridge.h"

#include <charconv>
#include <optional>

#include "log/codes.h"
#include "log/emitter.h"
#include "obs/obs.h"

namespace storsubsim::sim {

namespace {

/// Formats "adapter.target" into a caller-provided stack buffer and returns
/// the written view (two u32s and a dot always fit in 24 bytes).
std::string_view format_device_address(const model::Fleet& fleet, model::DiskId disk,
                                       std::span<char> buf) {
  const auto& record = fleet.disk(disk);
  const auto& shelf = fleet.shelf(record.shelf);
  // FC loop addressing flavor: adapter number from the shelf's position in
  // the system, target offset by 16 as in the paper's "8.24" example.
  char* p = buf.data();
  char* const end = buf.data() + buf.size();
  p = std::to_chars(p, end, shelf.index_in_system + 1).ptr;
  *p++ = '.';
  p = std::to_chars(p, end, record.slot + 16).ptr;
  return std::string_view(buf.data(), static_cast<std::size_t>(p - buf.data()));
}

log::EventCode precursor_code(PrecursorKind kind) {
  switch (kind) {
    case PrecursorKind::kMediumError: return log::EventCode::kDiskIoMediumError;
    case PrecursorKind::kLinkReset: return log::EventCode::kFciLinkReset;
    case PrecursorKind::kCmdTimeout: return log::EventCode::kScsiSlowCompletion;
  }
  return log::EventCode::kUnknown;
}

std::optional<PrecursorKind> precursor_kind_of(log::EventCode code) {
  switch (code) {
    case log::EventCode::kDiskIoMediumError: return PrecursorKind::kMediumError;
    case log::EventCode::kFciLinkReset: return PrecursorKind::kLinkReset;
    case log::EventCode::kScsiSlowCompletion: return PrecursorKind::kCmdTimeout;
    default: return std::nullopt;
  }
}

/// The message text after "Device <address>".
std::string_view precursor_message_tail(PrecursorKind kind) {
  switch (kind) {
    case PrecursorKind::kMediumError: return ": medium error, sector remapped.";
    case PrecursorKind::kLinkReset: return ": Fibre Channel link reset.";
    case PrecursorKind::kCmdTimeout: return ": command completion exceeded threshold.";
  }
  return {};
}

}  // namespace

std::size_t write_failure_logs(log::LineWriter& out, const model::Fleet& fleet,
                               std::span<const SimFailure> failures) {
  std::size_t lines = 0;
  char dev_buf[24];
  for (const auto& f : failures) {
    log::FailureLineInput input;
    input.detect_time = f.detect_time;
    input.type = f.type;
    input.disk = f.disk;
    input.system = f.system;
    input.device_address = format_device_address(fleet, f.disk, dev_buf);
    const auto serial = model::serial_chars(f.disk);
    input.serial = std::string_view(serial.data(), serial.size());
    lines += log::emit_chain(out, input);
  }
  STORSIM_OBS_COUNTER(c_chains, "log.emit.chains",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_chains, failures.size());
  STORSIM_OBS_COUNTER(c_lines, "log.emit.lines",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_lines, lines);
  return lines;
}

std::size_t write_precursor_logs(log::LineWriter& out, const model::Fleet& fleet,
                                 std::span<const PrecursorEvent> events) {
  log::LineWriter message;
  char dev_buf[24];
  for (const auto& e : events) {
    message.clear();
    message.text("Device ").text(format_device_address(fleet, e.disk, dev_buf));
    message.text(precursor_message_tail(e.kind));
    log::LogView record;
    record.time = e.time;
    record.code_id = precursor_code(e.kind);
    record.code = log::code_name(record.code_id);
    record.severity =
        e.kind == PrecursorKind::kCmdTimeout ? log::Severity::kWarning : log::Severity::kError;
    record.disk = e.disk;
    record.system = e.system;
    record.message = message.view();
    log::render_line_to(out, record);
    out.newline();
  }
  return events.size();
}

std::vector<PrecursorEvent> extract_precursors(std::span<const log::LogView> records) {
  std::vector<PrecursorEvent> out;
  for (const auto& r : records) {
    const auto kind = precursor_kind_of(r.code_id);
    if (!kind || !r.disk.valid()) continue;
    out.push_back(PrecursorEvent{r.time, r.disk, r.system, *kind});
  }
  return out;
}

}  // namespace storsubsim::sim
