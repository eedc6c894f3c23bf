#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "obs/obs.h"
#include "store/reader.h"
#include "util/parallel.h"

namespace storsubsim::bench {

namespace {

/// Splits `--name=value`; nullopt for anything else.
std::optional<std::pair<std::string_view, std::string_view>> split_flag(std::string_view arg) {
  const auto eq = arg.find('=');
  if (!arg.starts_with("--") || eq == std::string_view::npos) return std::nullopt;
  return std::pair{arg.substr(2, eq - 2), arg.substr(eq + 1)};
}

/// The --store path this run actually read (standard_dataset, input_store);
/// finish_run records it, so a harness that ignores --store records none.
std::string g_store_read;

[[noreturn]] void bad_value(std::string_view flag, std::string_view text, const char* want) {
  std::cerr << "invalid --" << flag << " value '" << text << "': want " << want << "\n";
  std::exit(2);
}

}  // namespace

std::uint64_t parse_count(std::string_view flag, std::string_view text, std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) {
    bad_value(flag, text, "a non-negative count");
  }
  return value;
}

double parse_real(std::string_view flag, std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) || value < 0.0) {
    bad_value(flag, text, "a finite non-negative number");
  }
  return value;
}

Options parse_options(int argc, char** argv, std::string default_manifest,
                      const LocalFlag& local) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto flag = split_flag(arg);
    const std::string_view name = flag ? flag->first : std::string_view();
    const std::string_view value = flag ? flag->second : std::string_view();
    if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (name == "scale") {
      options.scale = parse_real(name, value);
    } else if (name == "seed") {
      options.seed = parse_count(name, value);
    } else if (name == "threads") {
      options.threads =
          static_cast<unsigned>(parse_count(name, value, std::numeric_limits<unsigned>::max()));
    } else if (name == "repeat") {
      options.repeat = std::max(
          1, static_cast<int>(parse_count(name, value, std::numeric_limits<int>::max())));
    } else if (name == "store") {
      options.store = std::string(value);
    } else if (name == "trace") {
      options.trace = std::string(value);
    } else if (name == "manifest") {
      options.manifest = std::string(value);
    } else if (!flag || !local || !local(name, value)) {
      std::cerr << "unknown flag '" << arg << "'\n";
      std::exit(2);
    }
  }
  if (options.manifest.empty()) options.manifest = std::move(default_manifest);
  util::set_thread_count(options.threads);
  if (!options.trace.empty()) obs::set_tracing_enabled(true);
  return options;
}

std::string scratch_path(const std::string& name) {
  static std::vector<std::string> paths;
  if (paths.empty()) {
    std::atexit([] {
      for (const auto& path : paths) {
        std::error_code ignored;
        std::filesystem::remove_all(path, ignored);
      }
    });
  }
  paths.push_back(std::filesystem::temp_directory_path() /
                  (std::to_string(::getpid()) + "." + name));
  return paths.back();
}

std::string input_store(const Options& options, const std::string& name) {
  if (!options.store.empty()) return g_store_read = options.store;
  const std::string path = scratch_path(name + ".store");
  const auto run =
      core::simulate_and_analyze(model::standard_fleet_config(options.scale, options.seed));
  if (const auto err = core::write_store(path, run, options.seed, options.scale); !err.ok()) {
    std::cerr << "FAIL: cannot write store: " << err.describe() << "\n";
    std::exit(1);
  }
  return path;
}

void finish_run(const std::string& tool, const Options& options,
                const std::vector<std::pair<std::string, double>>& numbers,
                const std::vector<std::pair<std::string, std::string>>& info) {
  if (!options.trace.empty() && !obs::write_trace_json(options.trace)) {
    std::cerr << "cannot write trace " << options.trace << "\n";
    std::exit(1);
  }
  if (!options.manifest.empty()) {
    obs::RunManifest manifest;
    manifest.tool = tool;
    manifest.seed = options.seed;
    manifest.scale = options.scale;
    manifest.threads = util::thread_count();
    if (!g_store_read.empty()) manifest.info.emplace_back("store", g_store_read);
    manifest.info.insert(manifest.info.end(), info.begin(), info.end());
    manifest.numbers = numbers;
    if (!obs::write_manifest(options.manifest, manifest)) {
      std::cerr << "cannot write manifest " << options.manifest << "\n";
      std::exit(1);
    }
  }
  if (options.metrics) {
    std::cerr << obs::registry().snapshot().to_text();
  }
}

core::SimulationDataset standard_dataset(const Options& options) {
  if (options.store.empty()) {
    return core::simulate_and_analyze(model::standard_fleet_config(options.scale, options.seed));
  }
  store::EventStore es;
  if (const auto err = es.open(options.store); !err.ok()) {
    std::cerr << "cannot open store " << options.store << ": " << err.describe() << "\n";
    std::exit(1);
  }
  g_store_read = options.store;
  return core::simulation_dataset_from_store(es);
}

void print_banner(std::ostream& out, const std::string& exhibit, const Options& options,
                  const core::SimulationDataset& dataset) {
  out << "\n================================================================\n"
      << exhibit << "\n"
      << "fleet scale " << options.scale << " (seed " << options.seed << "): "
      << dataset.dataset.selected_system_count() << " systems, "
      << dataset.dataset.selected_shelf_count() << " shelves, "
      << dataset.dataset.inventory().disks.size() << " disk records, "
      << core::fmt(dataset.dataset.disk_exposure_years(), 0) << " disk-years, "
      << dataset.dataset.events().size() << " subsystem failures\n"
      << "pipeline: " << dataset.pipeline.log_lines_written << " log lines emitted, "
      << dataset.pipeline.log_lines_parsed << " parsed, "
      << dataset.pipeline.failures_classified << " failures classified\n"
      << "================================================================\n";
}

void print_table(std::ostream& out, const core::TextTable& table, const Options& options) {
  if (options.csv) {
    table.print_csv(out);
  } else {
    table.print(out);
  }
  out << "\n";
}

std::string afr_cell(const core::AfrBreakdown& b, model::FailureType type) {
  return core::fmt(b.afr_pct(type), 2);
}

}  // namespace storsubsim::bench
