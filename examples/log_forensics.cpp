// Log forensics: work with the AutoSupport-style text logs directly.
//
//   $ ./build/examples/log_forensics [fleet.store]
//
// Scenario: a support engineer receives raw storage logs — including noise
// from other subsystems and lines mangled in transit — and needs to answer
// "what failed, when, and what kind of failure was it?". This example:
//   1. renders the paper's Figure 3 propagation chain for each failure type,
//   2. corrupts the stream (foreign lines, truncation, duplicate replay),
//   3. parses + classifies it back and prints the recovered failure ledger.
//
// Given a prebuilt columnar store (storsubsim store build, docs/STORE.md),
// the ledger section reads the archived failures from the store instead of
// replaying synthetic logs — the same forensics over a whole recorded fleet.
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.h"
#include "core/store_bridge.h"
#include "log/classifier.h"
#include "log/emitter.h"
#include "log/line_writer.h"
#include "log/parser.h"
#include "model/enums.h"
#include "model/fleet.h"
#include "store/reader.h"

using namespace storsubsim;

namespace {

/// Appends the propagation chain of one failure on system 3 to `out`.
void emit_failure(log::LineWriter& out, double t, model::FailureType type, std::uint32_t disk) {
  const std::string address =
      std::to_string(2 + disk % 4) + "." + std::to_string(16 + disk % 14);
  const std::string serial = model::serial_for(model::DiskId(disk));
  log::emit_chain(out, log::FailureLineInput{t, type, model::DiskId(disk), model::SystemId(3),
                                             address, serial});
}

/// Forensics over an archived run: print the fleet-wide ledger summary
/// straight from a mapped store file. Returns false if the file will not
/// open (the caller falls back to the synthetic-log walkthrough).
bool ledger_from_store(const char* path) {
  store::EventStore es;
  if (const auto err = es.open(path); !err.ok()) {
    std::cerr << "cannot open store " << path << ": " << err.describe()
              << "\nfalling back to the synthetic-log walkthrough\n\n";
    return false;
  }
  std::cout << "Archived run from " << path << " (seed " << es.header().seed
            << ", scale " << es.header().scale << "): " << es.event_count()
            << " classified failures over " << es.header().disk_count
            << " disk records.\n\nFirst ten entries of the recovered ledger:\n";
  const auto dataset = core::dataset_from_store(es);
  core::TextTable table({"detected at (s)", "disk", "failure type", "class"});
  std::size_t shown = 0;
  for (const auto& f : dataset.events()) {
    if (++shown > 10) break;
    table.add_row({core::fmt(f.time, 0), std::to_string(f.disk.value()),
                   std::string(model::to_string(f.type)),
                   std::string(model::to_string(dataset.system_of(f).cls))});
  }
  table.print(std::cout);
  core::TextTable tally({"failure type", "events"});
  for (const auto type : model::kAllFailureTypes) {
    std::size_t n = 0;
    for (const auto& f : dataset.events()) {
      if (f.type == type) ++n;
    }
    tally.add_row({std::string(model::to_string(type)), std::to_string(n)});
  }
  std::cout << "\nFleet-wide breakdown:\n";
  tally.print(std::cout);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && ledger_from_store(argv[1])) return 0;

  // --- 1. What a failure looks like in the logs -----------------------------
  std::cout << "A physical interconnect failure propagating from the Fibre Channel\n"
               "layer up to the RAID layer (the shape of the paper's Figure 3):\n\n";
  log::LineWriter chain;
  emit_failure(chain, 490416.0, model::FailureType::kPhysicalInterconnect, 24);
  for (std::string_view rest = chain.view(); !rest.empty();) {
    const auto nl = rest.find('\n');
    std::cout << "  " << rest.substr(0, nl) << "\n";
    rest.remove_prefix(nl + 1);
  }

  // --- 2. A messy log stream ------------------------------------------------
  log::LineWriter stream;
  double t = 100000.0;
  const model::FailureType kinds[] = {
      model::FailureType::kDisk, model::FailureType::kPhysicalInterconnect,
      model::FailureType::kPhysicalInterconnect, model::FailureType::kProtocol,
      model::FailureType::kPerformance};
  std::uint32_t disk = 10;
  for (const auto type : kinds) {
    emit_failure(stream, t, type, disk);
    t += 7200.0;
    ++disk;
  }
  // Replay the interconnect terminal line (multipath reporting duplicates it).
  // Parse the replayed chain and render its last record, the RAID-layer
  // terminal, back to its line.
  log::LineWriter replayed;
  emit_failure(replayed, 100000.0 + 7200.0 + 30.0, model::FailureType::kPhysicalInterconnect,
               11);
  std::vector<log::LogView> replay_records;
  log::parse_text(replayed.view(), replay_records);
  log::render_line_to(stream, replay_records.back());
  stream.newline();
  // Foreign subsystem noise and a line mangled in transit.
  stream.text("nvram.battery.low: replace battery pack soon\n");
  stream.text("D0001 03:00:00 t=97200.000 [scsi.cmd.checkCondition:err");  // truncated

  // --- 3. Parse and classify -------------------------------------------------
  // The records are views into `stream`, which outlives them.
  std::vector<log::LogView> records;
  const auto parse_stats = log::parse_text(stream.view(), records);
  log::ClassifierStats classify_stats;
  const auto failures = log::classify(records, {}, &classify_stats);

  std::cout << "\nParsed " << parse_stats.lines_total << " lines: " << parse_stats.lines_parsed
            << " records, " << parse_stats.lines_skipped << " foreign/blank, "
            << parse_stats.lines_malformed << " malformed.\n"
            << "RAID-layer records: " << classify_stats.raid_records << " ("
            << classify_stats.duplicates_dropped << " duplicate report(s) collapsed).\n\n";

  std::cout << "Recovered failure ledger:\n";
  core::TextTable table({"detected at (s)", "disk", "failure type"});
  for (const auto& f : failures) {
    table.add_row({core::fmt(f.time, 0), std::to_string(f.disk.value()),
                   std::string(model::to_string(f.type))});
  }
  table.print(std::cout);

  std::cout << "\nNote how only RAID-layer terminal events become failures — the five\n"
               "lower-layer precursors of each chain explain the failure but are not\n"
               "counted (the paper's methodology, Section 2.5).\n";
  return 0;
}
