// Emitter/parser round-trips, the Figure 3 propagation chain shape, and
// failure injection (corrupt, truncated, foreign, reordered lines).
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "log/classifier.h"
#include "log/codes.h"
#include "log/emitter.h"
#include "log/line_writer.h"
#include "log/parser.h"
#include "log/snapshot.h"
#include "sim/log_bridge.h"
#include "sim/scenario.h"
#include "store/format.h"

namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;

namespace {

log_ns::FailureLineInput sample_failure(model::FailureType type, double t = 50000.0) {
  return log_ns::FailureLineInput{t, type, model::DiskId(123), model::SystemId(7), "8.24",
                                  "SN3EL03PAV00"};
}

/// Emits one failure's chain into `text` and returns its parsed records,
/// which alias `text`.
std::vector<log_ns::LogView> emit_and_parse(log_ns::LineWriter& text,
                                            const log_ns::FailureLineInput& failure) {
  log_ns::emit_chain(text, failure);
  std::vector<log_ns::LogView> records;
  log_ns::parse_text(text.view(), records);
  return records;
}

bool parses(std::string_view line) {
  log_ns::LogView view;
  return log_ns::parse_line_view(line, view);
}

}  // namespace

TEST(PropagationChain, MatchesFigure3ForInterconnect) {
  log_ns::LineWriter text;
  const auto chain =
      emit_and_parse(text, sample_failure(model::FailureType::kPhysicalInterconnect));
  ASSERT_EQ(chain.size(), 6u);
  // Exactly the event sequence of the paper's Figure 3.
  EXPECT_EQ(chain[0].code, "fci.device.timeout");
  EXPECT_EQ(chain[1].code, "fci.adapter.reset");
  EXPECT_EQ(chain[2].code, "scsi.cmd.abortedByHost");
  EXPECT_EQ(chain[3].code, "scsi.cmd.selectionTimeout");
  EXPECT_EQ(chain[4].code, "scsi.cmd.noMorePaths");
  EXPECT_EQ(chain[5].code, "raid.config.filesystem.disk.missing");
  // Lower layers report before the RAID layer; timestamps ascend.
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LE(chain[i - 1].time, chain[i].time);
  }
  EXPECT_DOUBLE_EQ(chain.back().time, 50000.0);
  // The terminal line carries the serial like the paper's example.
  EXPECT_NE(chain.back().message.find("S/N [SN3EL03PAV00]"), std::string::npos);
  EXPECT_NE(chain.back().message.find("is missing"), std::string::npos);
}

TEST(PropagationChain, EveryTypeEndsAtRaidLayer) {
  for (const auto type : model::kAllFailureTypes) {
    log_ns::LineWriter text;
    const auto chain = emit_and_parse(text, sample_failure(type));
    ASSERT_GE(chain.size(), 2u) << model::to_string(type);
    EXPECT_TRUE(chain.back().code.starts_with("raid.")) << chain.back().code;
    const auto terminal_type = log_ns::failure_type_of(chain.back().code_id);
    ASSERT_TRUE(terminal_type.has_value());
    EXPECT_EQ(*terminal_type, type);
    // Precursors are below the RAID layer.
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      EXPECT_FALSE(chain[i].code.starts_with("raid.")) << chain[i].code;
    }
  }
}

TEST(RenderParse, RoundTripsAllFields) {
  for (const auto type : model::kAllFailureTypes) {
    log_ns::LineWriter text;
    const auto failure = sample_failure(type, 123456.789);
    const auto records = emit_and_parse(text, failure);
    ASSERT_FALSE(records.empty());
    EXPECT_NEAR(records.back().time, failure.detect_time, 1e-3);
    std::string_view lines = text.view();
    for (const auto& record : records) {
      // Rendering a parsed record gives back the emitted line byte for
      // byte, and that line parses to the same fields.
      const std::string_view emitted = lines.substr(0, lines.find('\n'));
      lines.remove_prefix(emitted.size() + 1);
      log_ns::LineWriter line;
      log_ns::render_line_to(line, record);
      EXPECT_EQ(line.view(), emitted);
      log_ns::LogView parsed;
      ASSERT_TRUE(log_ns::parse_line_view(line.view(), parsed)) << line.view();
      EXPECT_EQ(parsed.time, record.time);
      EXPECT_EQ(parsed.code, record.code);
      EXPECT_EQ(parsed.code_id, record.code_id);
      EXPECT_EQ(parsed.severity, record.severity);
      EXPECT_EQ(parsed.disk, record.disk);
      EXPECT_EQ(parsed.system, record.system);
      EXPECT_EQ(parsed.message, record.message);
      EXPECT_EQ(parsed.disk, failure.disk);
      EXPECT_EQ(parsed.system, failure.system);
    }
  }
}

TEST(RenderParse, InvalidIdsRenderAsDash) {
  log_ns::LogView record;
  record.time = 10.0;
  record.code = "raid.config.disk.failed";
  record.severity = log_ns::Severity::kError;
  record.message = "orphan event";
  log_ns::LineWriter line;
  log_ns::render_line_to(line, record);
  EXPECT_NE(line.view().find("sys=- disk=-"), std::string_view::npos);
  log_ns::LogView parsed;
  ASSERT_TRUE(log_ns::parse_line_view(line.view(), parsed));
  EXPECT_FALSE(parsed.disk.valid());
  EXPECT_FALSE(parsed.system.valid());
}

TEST(ParseLine, RejectsMalformedLines) {
  EXPECT_FALSE(parses(""));
  EXPECT_FALSE(parses("console: power button pressed"));
  EXPECT_FALSE(parses("D0000 00:00:01 t=abc [x:error] [sys=1 disk=2]: m"));
  EXPECT_FALSE(parses("D0000 00:00:01 t=5.0 [no-severity] [sys=1 disk=2]: m"));
  EXPECT_FALSE(parses("D0000 00:00:01 t=5.0 [c:error] sys=1 disk=2: m"));
  EXPECT_FALSE(parses("D0000 00:00:01 t=5.0 [c:fatal] [sys=1 disk=2]: m"));
}

TEST(ParseText, CountsForeignAndMalformed) {
  log_ns::LineWriter text;
  log_ns::emit_chain(text, sample_failure(model::FailureType::kDisk));
  text.text("# a comment line\n");
  text.text("console: operator logged in\n");                         // foreign
  text.text("D0000 00:00:01 t=5.0 [c:fatal] [sys=1 disk=2]: bad\n");  // malformed
  text.text("\n");

  std::vector<log_ns::LogView> records;
  const auto stats = log_ns::parse_text(text.view(), records);
  EXPECT_EQ(records.size(), 3u);  // disk chain has 3 records
  EXPECT_EQ(stats.lines_parsed, 3u);
  EXPECT_EQ(stats.lines_malformed, 1u);
  EXPECT_EQ(stats.lines_skipped, 3u);  // comment + foreign + blank
  EXPECT_EQ(stats.lines_total, 7u);
}

TEST(ParseText, SurvivesTruncatedLine) {
  log_ns::LineWriter text;
  log_ns::emit_chain(text, sample_failure(model::FailureType::kProtocol));
  std::string all = text.take();
  // Chop the last line mid-way (simulates a crash during log write).
  all.resize(all.size() - 25);
  std::vector<log_ns::LogView> records;
  const auto stats = log_ns::parse_text(all, records);
  EXPECT_GE(records.size(), 2u);
  EXPECT_EQ(stats.lines_parsed + stats.lines_malformed + stats.lines_skipped,
            stats.lines_total);
}

// --- golden format -----------------------------------------------------------
// The on-wire line format is a compatibility contract (docs/FORMAT.md): these
// lines were captured from the emitter before the zero-allocation rewrite and
// pin the rendered bytes exactly. If one of these fails, parsers of existing
// logs break — do not update the expectations without a format version bump.

namespace {

log_ns::FailureLineInput golden_failure(model::FailureType type) {
  return log_ns::FailureLineInput{123456.789, type, model::DiskId(1873), model::SystemId(41),
                                  "8.24", "SN3EL03PAV00"};
}

struct GoldenChain {
  model::FailureType type;
  std::vector<const char*> lines;
};

const std::vector<GoldenChain>& golden_chains() {
  static const std::vector<GoldenChain> kChains = {
      {model::FailureType::kDisk,
       {"D0001 10:13:36 t=123216.789 [disk.ioMediumError:error] [sys=41 disk=1873]: "
        "Device 8.24: medium error during read, sector remap attempted.",
        "D0001 10:16:06 t=123366.789 [scsi.cmd.checkCondition:error] [sys=41 disk=1873]: "
        "Device 8.24: check condition: hardware error, internal target failure.",
        "D0001 10:17:36 t=123456.789 [raid.config.disk.failed:error] [sys=41 disk=1873]: "
        "Disk 8.24 S/N [SN3EL03PAV00] failed; marked for reconstruction."}},
      {model::FailureType::kPhysicalInterconnect,
       {"D0001 10:14:50 t=123290.789 [fci.device.timeout:error] [sys=41 disk=1873]: "
        "Adapter 8 encountered a device timeout on device 8.24",
        "D0001 10:15:04 t=123304.789 [fci.adapter.reset:info] [sys=41 disk=1873]: "
        "Resetting Fibre Channel adapter 8.",
        "D0001 10:15:04 t=123304.789 [scsi.cmd.abortedByHost:error] [sys=41 disk=1873]: "
        "Device 8.24: Command aborted by host adapter",
        "D0001 10:15:26 t=123326.789 [scsi.cmd.selectionTimeout:error] [sys=41 disk=1873]: "
        "Device 8.24: Adapter/target error: Targeted device did not respond to requested "
        "I/O. I/O will be retried.",
        "D0001 10:15:36 t=123336.789 [scsi.cmd.noMorePaths:error] [sys=41 disk=1873]: "
        "Device 8.24: No more paths to device. All retries have failed.",
        "D0001 10:17:36 t=123456.789 [raid.config.filesystem.disk.missing:info] "
        "[sys=41 disk=1873]: File system Disk 8.24 S/N [SN3EL03PAV00] is missing."}},
      {model::FailureType::kProtocol,
       {"D0001 10:16:21 t=123381.789 [scsi.cmd.protocolViolation:error] [sys=41 disk=1873]: "
        "Device 8.24: unexpected response for tagged command; protocol violation suspected.",
        "D0001 10:17:06 t=123426.789 [scsi.cmd.retryExhausted:error] [sys=41 disk=1873]: "
        "Device 8.24: command retries exhausted; responses remain inconsistent.",
        "D0001 10:17:36 t=123456.789 [raid.disk.protocol.error:error] [sys=41 disk=1873]: "
        "Disk 8.24 S/N [SN3EL03PAV00] visible but I/O requests are not correctly "
        "responded."}},
      {model::FailureType::kPerformance,
       {"D0001 10:10:36 t=123036.789 [scsi.cmd.slowResponse:warning] [sys=41 disk=1873]: "
        "Device 8.24: request latency exceeds service threshold.",
        "D0001 10:14:16 t=123256.789 [scsi.cmd.slowResponse:warning] [sys=41 disk=1873]: "
        "Device 8.24: request latency exceeds service threshold.",
        "D0001 10:17:36 t=123456.789 [raid.disk.timeout.slow:warning] [sys=41 disk=1873]: "
        "Disk 8.24 S/N [SN3EL03PAV00] cannot serve I/O requests in a timely manner."}},
  };
  return kChains;
}

}  // namespace

TEST(GoldenFormat, BufferPathRendersExactBytes) {
  log_ns::LineWriter out;  // reused across chains, like the pipeline does
  for (const auto& golden : golden_chains()) {
    out.clear();
    const auto lines = log_ns::emit_chain(out, golden_failure(golden.type));
    EXPECT_EQ(lines, golden.lines.size());
    std::string expected;
    for (const char* line : golden.lines) {
      expected += line;
      expected += '\n';
    }
    EXPECT_EQ(out.view(), expected) << model::to_string(golden.type);
  }
}

// The whole paper-scale fleet (scale 1.0, seed 20080226), pinned by byte
// count and CRC-32 (the zlib polynomial: zlib.crc32 over the files
// `storsubsim simulate --scale 1.0` writes gives the same values). They were
// taken from a tree whose log text was verified byte-identical, at this scale
// and seed, to the pre-optimisation emitter, and whose classification matched
// that implementation's. One changed character in any message template,
// separator or number rendering fails here.
TEST(GoldenFormat, FullFleetLogAndSnapshotDigest) {
  const auto fs = storsubsim::sim::run_standard(1.0, 20080226);

  {
    log_ns::LineWriter snapshot;
    log_ns::write_snapshot(snapshot, fs.fleet);
    EXPECT_EQ(snapshot.size(), 200'720'311u);
    EXPECT_EQ(storsubsim::store::crc32(snapshot.view().data(), snapshot.size()), 0x7603e2e5u);
  }

  log_ns::LineWriter logs;
  EXPECT_EQ(storsubsim::sim::write_failure_logs(logs, fs.fleet, fs.result.failures), 727'317u);
  EXPECT_EQ(logs.size(), 108'668'034u);
  EXPECT_EQ(storsubsim::store::crc32(logs.view().data(), logs.size()), 0x2851e86au);

  // Classification identity: parsing and classifying the text recovers the
  // simulated failures one by one — disk, system and type exactly, and the
  // detection time as the log renders it (3 decimals). Both lists are put in
  // the same (millisecond, disk, type) order first.
  std::vector<log_ns::LogView> views;
  log_ns::parse_text(logs.view(), views);
  auto classified = log_ns::classify(std::span<const log_ns::LogView>(views));
  auto simulated = fs.result.failures;
  const auto ms = [](double t) { return std::llround(t * 1000.0); };
  std::sort(classified.begin(), classified.end(), [&](const auto& a, const auto& b) {
    return std::tuple(ms(a.time), a.disk, static_cast<int>(a.type)) <
           std::tuple(ms(b.time), b.disk, static_cast<int>(b.type));
  });
  std::sort(simulated.begin(), simulated.end(), [&](const auto& a, const auto& b) {
    return std::tuple(ms(a.detect_time), a.disk, static_cast<int>(a.type)) <
           std::tuple(ms(b.detect_time), b.disk, static_cast<int>(b.type));
  });
  ASSERT_EQ(classified.size(), simulated.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < classified.size(); ++i) {
    const auto& c = classified[i];
    const auto& f = simulated[i];
    const bool same = c.disk == f.disk && c.system == f.system && c.type == f.type &&
                      std::abs(c.time - f.detect_time) <= 0.0005 + 1e-6;
    if (!same && mismatches++ == 0) {
      ADD_FAILURE() << "first classification mismatch at failure " << i << ": parsed t="
                    << c.time << " disk=" << c.disk.value() << " sys=" << c.system.value()
                    << ", simulated t=" << f.detect_time << " disk=" << f.disk.value()
                    << " sys=" << f.system.value();
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// --- attribute keys anchor at token boundaries -------------------------------

TEST(ParseLine, AttributeKeysDoNotMatchInsideLongerKeys) {
  // "sys=" must not match the tail of "subsys=", nor "disk=" the tail of
  // "mydisk=" (regression: the parser used to take the first substring hit).
  log_ns::LogView parsed;
  ASSERT_TRUE(log_ns::parse_line_view(
      "D0000 00:00:05 t=5.0 [c:error] [subsys=9 sys=1 mydisk=7 disk=2]: m", parsed));
  EXPECT_EQ(parsed.system, model::SystemId(1));
  EXPECT_EQ(parsed.disk, model::DiskId(2));
}

TEST(ParseLine, SuffixOnlyAttributeKeysAreMissingAttributes) {
  // With only "subsys="/"mydisk=" present, the record has no sys/disk
  // attributes at all and must be rejected, not silently misread.
  EXPECT_FALSE(parses("D0000 00:00:05 t=5.0 [c:error] [subsys=9 mydisk=7]: m"));
}

TEST(ParseLine, MalformedAttributeValuesAreRejected) {
  EXPECT_FALSE(parses("D0000 00:00:05 t=5.0 [c:error] [sys= disk=2]: m"));
  EXPECT_FALSE(parses("D0000 00:00:05 t=5.0 [c:error] [sys=x disk=2]: m"));
}

// --- whole-buffer parsing ----------------------------------------------------

TEST(ParseText, ViewsAliasTheSourceBuffer) {
  const std::string text =
      "D0000 00:00:05 t=5.0 [raid.config.disk.failed:error] [sys=1 disk=2]: gone\n";
  std::vector<log_ns::LogView> views;
  log_ns::parse_text(text, views);
  ASSERT_EQ(views.size(), 1u);
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  EXPECT_TRUE(views[0].code.data() >= begin && views[0].code.data() < end);
  EXPECT_TRUE(views[0].message.data() >= begin && views[0].message.data() < end);
  EXPECT_EQ(views[0].code_id, log_ns::EventCode::kRaidDiskFailed);
}

TEST(ParseText, LineSplittingMatchesGetlineSemantics) {
  std::vector<log_ns::LogView> views;
  EXPECT_EQ(log_ns::parse_text("", views).lines_total, 0u);
  EXPECT_EQ(log_ns::parse_text("\n", views).lines_total, 1u);    // one empty line
  EXPECT_EQ(log_ns::parse_text("# c", views).lines_total, 1u);   // no trailing \n
  EXPECT_EQ(log_ns::parse_text("# c\n", views).lines_total, 1u); // trailing \n adds none
  const auto stats = log_ns::parse_text("# a\n\n# b", views);
  EXPECT_EQ(stats.lines_total, 3u);
  EXPECT_EQ(stats.lines_skipped, 3u);
}

TEST(RenderTimestamp, DayAndTimeOfDay) {
  // The cosmetic day/time-of-day field that opens every rendered line.
  const auto stamp = [](double sim_seconds) {
    log_ns::LogView record;
    record.time = sim_seconds;
    record.code_id = log_ns::EventCode::kRaidDiskFailed;
    record.code = log_ns::code_name(record.code_id);
    log_ns::LineWriter out;
    log_ns::render_line_to(out, record);
    const std::string_view line = out.view();
    return std::string(line.substr(0, line.find(" t=")));
  };
  EXPECT_EQ(stamp(0.0), "D0000 00:00:00");
  EXPECT_EQ(stamp(86399.0), "D0000 23:59:59");
  EXPECT_EQ(stamp(86400.0), "D0001 00:00:00");
  EXPECT_EQ(stamp(86400.0 + 3661.0), "D0001 01:01:01");
  // Negative (precursor before study start) clamps rather than underflows.
  EXPECT_EQ(stamp(-5.0), "D0000 00:00:00");

  // A chain detected at a day boundary: its precursors render on the day
  // before, its RAID-layer terminal on the new day.
  log_ns::FailureLineInput failure;
  failure.detect_time = 86400.0;
  failure.disk = model::DiskId(3);
  failure.system = model::SystemId(1);
  failure.device_address = "1.19";
  failure.serial = "SN0000003";
  log_ns::LineWriter chain;
  const std::size_t lines = log_ns::emit_chain(chain, failure);
  ASSERT_GE(lines, 2u);
  const std::string_view text = chain.view();
  EXPECT_EQ(text.substr(0, 9), "D0000 23:");
  const std::size_t last = text.rfind('\n', text.size() - 2) + 1;
  EXPECT_EQ(text.substr(last, 15), "D0001 00:00:00 ");
}
