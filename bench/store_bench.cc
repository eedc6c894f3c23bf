// Columnar store rerun cost: "simulate once, analyze many" quantified.
//
// Measures the three costs the store trades between (docs/STORE.md):
//
//   * pipeline — the full simulate -> emit -> parse -> classify path that an
//     exhibit rerun without --store pays every time;
//   * build    — serializing the finished run into a store file (paid once);
//   * rerun    — mmap the store, decode the time columns, and answer the
//     whole-fleet AFR breakdown plus a grouped query (paid per reanalysis).
//
// The store-backed breakdown must match the in-memory pipeline's breakdown
// bit for bit, and the query's per-type counts must match the classifier's —
// the program exits nonzero otherwise, so the speedup is apples-to-apples.
// The one output is the run manifest (default BENCH_store.json).
//
//   store_bench [--scale=<f>] [--seed=<n>] [--repeat=<n>] [--threads=<n>]
//               [--store=<path>] [--manifest=<path>]
//               [--shards=<n>] [--max-rss-mb=<m>]
//
// --repeat keeps the fastest of n runs per stage (min-of-N). --store names
// the store written during the run and keeps it; without it the store goes
// to a scratch file under the temp directory, removed at exit.
//
// Passing --shards and/or --max-rss-mb switches to the sharded build path:
// --store then names a DIRECTORY that receives N STORCOL1 shards plus a
// MANIFEST (core::build_sharded_store), and the bench additionally reports
// the shard count, the per-shard build seconds (`shard_<i>_build_seconds`),
// and the cold cross-shard rerun cost (fresh ShardStore open + merged AFR +
// grouped query spanning every shard). The fidelity gates are unchanged: the
// merged answers must equal the in-memory pipeline's bit for bit.
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "core/afr.h"
#include "core/pipeline.h"
#include "core/sharded_build.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/shards.h"
#include "util/parallel.h"
#include "util/rss.h"

namespace {

using namespace storsubsim;

bool same_breakdown(const std::vector<core::AfrBreakdown>& a,
                    const std::vector<core::AfrBreakdown>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].events != b[i].events ||
        a[i].disk_years != b[i].disk_years) {  // exact FP compare — intentional
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t shard_opt = 0;
  std::uint64_t max_rss_mb = 0;
  const auto options = bench::parse_options(
      argc, argv, "BENCH_store.json", [&](std::string_view name, std::string_view value) {
        if (name == "shards") {
          shard_opt = bench::parse_count(name, value);
        } else if (name == "max-rss-mb") {
          max_rss_mb = bench::parse_count(name, value);
        } else {
          return false;
        }
        return true;
      });
  const double scale = options.scale;
  const std::uint64_t seed = options.seed;
  const bool sharded = shard_opt > 0 || max_rss_mb > 0;
  const std::string store_path = !options.store.empty() ? options.store
                                 : sharded              ? bench::scratch_path("store.shards")
                                                        : bench::scratch_path("store.store");

  // The cost a store-less rerun pays: the full text-log pipeline.
  const double t0 = obs::now_seconds();
  const auto run = core::simulate_and_analyze(model::standard_fleet_config(scale, seed));
  const double pipeline_seconds = obs::now_seconds() - t0;
  std::cout << "scale " << scale << ": " << run.dataset.events().size() << " failures, "
            << run.dataset.inventory().disks.size() << " disk records ("
            << pipeline_seconds << " s full pipeline)\n";
  const auto reference = core::afr_by_class(core::Source(run.dataset));

  // Build cost (paid once per simulation). The sharded path re-simulates in
  // chunks (that is the point: bounded memory), so its build time includes
  // the simulation; the monolithic path serializes the run already in hand.
  std::vector<core::ShardedBuildResult> builds(static_cast<std::size_t>(options.repeat));
  const auto build = bench::min_of_n(options.repeat, [&](int r) {
    store::Error err;
    if (sharded) {
      core::ShardedBuildOptions build_options;
      build_options.shards = shard_opt;
      build_options.max_rss_mb = max_rss_mb;
      err = core::build_sharded_store(store_path, model::standard_fleet_config(scale, seed),
                                      build_options, &builds[static_cast<std::size_t>(r)]);
    } else {
      err = core::write_store(store_path, run, seed, scale);
    }
    if (!err.ok()) {
      std::cerr << "FAIL: cannot write store: " << err.describe() << "\n";
      std::exit(1);
    }
  });
  const double build_seconds = build.seconds;
  const auto& built = builds[static_cast<std::size_t>(build.run)];
  std::uint64_t file_bytes = 0;
  if (sharded) {
    store::ShardStore probe;
    if (const auto err = probe.open(store_path); !err.ok()) {
      std::cerr << "FAIL: cannot open shard directory: " << err.describe() << "\n";
      return 1;
    }
    for (std::size_t s = 0; s < probe.shard_count(); ++s) {
      file_bytes += probe.info(s).file_size;
    }
  } else {
    file_bytes = std::filesystem::file_size(store_path);
  }

  // Rerun cost (paid per reanalysis): cold open + the whole-fleet AFR
  // breakdown + a grouped full-scan query. Each repeat re-opens the file so
  // header/footer validation, CRCs and time-column decoding are all counted;
  // in sharded mode each repeat is a fresh ShardStore whose analysis crosses
  // every shard (manifest parse + N lazy shard validations included).
  std::vector<core::AfrBreakdown> store_breakdown;
  store::QueryResult grouped;
  const double rerun_seconds = bench::min_of_n(options.repeat, [&](int r) {
    std::vector<core::AfrBreakdown> breakdown;
    store::QueryResult result;
    store::Query query;
    query.group_by = store::Query::GroupBy::kSystemClass;
    if (sharded) {
      store::ShardStore shards;
      if (const auto err = shards.open(store_path); !err.ok()) {
        std::cerr << "FAIL: cannot open shard directory: " << err.describe() << "\n";
        std::exit(1);
      }
      breakdown = core::afr_by_class(core::Source(shards));
      if (const auto err = store::run_query(shards, query, &result); !err.ok()) {
        std::cerr << "FAIL: sharded query: " << err.describe() << "\n";
        std::exit(1);
      }
    } else {
      store::EventStore es;
      if (const auto err = es.open(store_path); !err.ok()) {
        std::cerr << "FAIL: cannot open store: " << err.describe() << "\n";
        std::exit(1);
      }
      breakdown = core::afr_by_class(core::Source(es));
      result = store::run_query(es, query);
    }
    if (r == 0) {
      store_breakdown = std::move(breakdown);
      grouped = std::move(result);
    }
  }).seconds;
  util::set_thread_count(0);

  // Fidelity gates: the mmap path must reproduce the in-memory results
  // exactly, and the query counts must agree with both.
  const bool breakdown_identical = same_breakdown(reference, store_breakdown);
  bool query_identical = grouped.groups.size() == reference.size();
  if (query_identical) {
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const auto& g = grouped.groups[i];
      if (g.label != reference[i].label || g.disk_years != reference[i].disk_years) {
        query_identical = false;
        break;
      }
      for (std::size_t type = 0; type < 4; ++type) {
        if (g.events_by_type[type] != reference[i].events[type]) query_identical = false;
      }
    }
  }
  const double speedup = rerun_seconds > 0.0 ? pipeline_seconds / rerun_seconds : 0.0;
  const std::uint64_t peak_rss = util::peak_rss_bytes();

  std::cout << "store: " << file_bytes << " bytes";
  if (sharded) std::cout << " across " << built.shards << " shard(s)";
  std::cout << ", build " << build_seconds << " s, mmap+query rerun " << rerun_seconds
            << " s\n"
            << "rerun speedup over full pipeline: " << speedup << "x\n"
            << "AFR breakdown " << (breakdown_identical ? "bit-identical" : "MISMATCH")
            << ", query counts " << (query_identical ? "identical" : "MISMATCH") << "\n";

  std::vector<std::pair<std::string, double>> numbers = {
      {"events", static_cast<double>(run.dataset.events().size())},
      {"disk_records", static_cast<double>(run.dataset.inventory().disks.size())},
      {"store_bytes", static_cast<double>(file_bytes)},
      {"shards", static_cast<double>(built.shards)},
      {"peak_rss_bytes", static_cast<double>(peak_rss)},
      {"pipeline_seconds", pipeline_seconds},
      {"store_build_seconds", build_seconds},
      {"rerun_open_query_seconds", rerun_seconds},
      {"rerun_speedup", speedup},
      {"breakdown_identical", breakdown_identical ? 1.0 : 0.0},
      {"query_identical", query_identical ? 1.0 : 0.0}};
  std::vector<std::pair<std::string, std::string>> info;
  if (!options.store.empty()) info.emplace_back("store", options.store);
  bench::finish_run("bench/store_bench", options, numbers, info);
  return (breakdown_identical && query_identical) ? 0 : 1;
}
