// Renders failure events as AutoSupport-style text logs.
//
// For each storage subsystem failure the emitter writes the propagation
// chain a real system would log — lower-layer precursor events followed by
// the RAID-layer terminal event (paper Figure 3). The terminal line carries
// machine-readable attributes (disk/system ids) so the parser can rebuild
// the analysis dataset without heuristics, while the prose stays faithful
// to the look of the original logs.
//
// Everything renders into a reusable LineWriter (docs/FORMAT.md):
// `emit_chain` formats a failure's whole chain in place from static message
// templates, allocation-free at steady state, and `render_line_to` renders
// one parsed record back to its line — the inverse of `parse_line_view`.
#pragma once

#include <cstddef>
#include <string_view>

#include "log/line_writer.h"
#include "log/parser.h"
#include "log/record.h"
#include "model/enums.h"
#include "model/ids.h"

namespace storsubsim::log {

/// A failure occurrence the emitter knows how to narrate. The caller keeps
/// the address/serial bytes alive for the duration of the call (a stack
/// scratch buffer suffices — nothing is retained).
struct FailureLineInput {
  double detect_time = 0.0;
  model::FailureType type = model::FailureType::kDisk;
  model::DiskId disk;
  model::SystemId system;
  /// Device address rendered as "adapter.target", e.g. "8.24".
  std::string_view device_address = "0.0";
  std::string_view serial;
};

/// Appends the full rendered propagation chain (newline-terminated lines)
/// for one failure to `out`: precursors first, each preceding
/// `detect_time` by seconds to minutes in the order the layers would report
/// them, then the RAID-layer terminal at `detect_time`. Returns the number
/// of lines appended.
std::size_t emit_chain(LineWriter& out, const FailureLineInput& failure);

/// Appends one record as a single text line (no trailing newline):
///   <ts> t=<seconds> [<code>:<severity>] [sys=N disk=N]: <message>
/// For any line this library wrote, `parse_line_view` then `render_line_to`
/// gives the same bytes back.
void render_line_to(LineWriter& out, const LogView& record);

}  // namespace storsubsim::log
