// Sharded store directory suite: a multi-shard build must be a perfect
// stand-in for the monolithic store file — per-shard files are valid
// STORCOL1 stores, `--shards 1` reproduces the single file byte for byte,
// and every merged answer (exposure table, meta counters, AFR, burstiness,
// correlation, lifetime, queries, rehydrated Dataset) is bit-identical to
// the single-file backend. The corruption half fuzzes the MANIFEST and the
// shard files: damage yields a typed store::Error, never UB or a crash.
//
// Scale 0.05 is the in-ctest fidelity point (same as the store round-trip
// and Source suites); the corruption fixtures use a smaller 0.01 fleet.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/afr.h"
#include "core/burstiness.h"
#include "core/correlation.h"
#include "core/lifetime.h"
#include "core/pipeline.h"
#include "core/sharded_build.h"
#include "core/source.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "store/parts.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/shards.h"
#include "util/parallel.h"

namespace core = storsubsim::core;
namespace log = storsubsim::log;
namespace model = storsubsim::model;
namespace store = storsubsim::store;
namespace util = storsubsim::util;

namespace {

/// PID-unique: ctest runs each TEST in its own process, possibly in
/// parallel, and a store file being rewritten while another process has it
/// mmapped is a bus error waiting to happen.
std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void remove_shard_dir(const std::string& dir) {
  store::ShardStore probe;
  if (probe.open(dir).ok()) {
    for (std::size_t s = 0; s < probe.shard_count(); ++s) {
      std::remove((dir + "/" + probe.info(s).file).c_str());
    }
  }
  for (std::size_t s = 0; s < 64; ++s) {  // leftovers from corruption tests
    char buf[48];
    std::snprintf(buf, sizeof buf, "/shard-%04zu.store", s);
    std::remove((dir + buf).c_str());
  }
  std::remove((dir + "/" + std::string(store::kManifestFileName)).c_str());
  ::rmdir(dir.c_str());
}

void expect_exposure_identical(const store::ExposureTable& a,
                               const store::ExposureTable& b) {
  EXPECT_EQ(a.total_disk_years, b.total_disk_years);  // bit-identical, not approx
  for (std::size_t c = 0; c < store::kClassCount; ++c) {
    EXPECT_EQ(a.class_disk_years[c], b.class_disk_years[c]);
    EXPECT_EQ(a.class_system_count[c], b.class_system_count[c]);
  }
  EXPECT_EQ(a.family_disk_years, b.family_disk_years);
  EXPECT_EQ(a.class_family_disk_years, b.class_family_disk_years);
}

void expect_query_identical(const store::QueryResult& a, const store::QueryResult& b) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].label, b.groups[i].label);
    EXPECT_EQ(a.groups[i].events_by_type, b.groups[i].events_by_type);
    EXPECT_EQ(a.groups[i].events, b.groups[i].events);
    EXPECT_EQ(a.groups[i].disk_years, b.groups[i].disk_years);
    EXPECT_EQ(a.groups[i].afr_pct, b.groups[i].afr_pct);
  }
}

/// One simulated run, its monolithic store file, and a 3-shard directory of
/// the same fleet, shared by every equivalence test.
class ShardEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new model::FleetConfig(model::standard_fleet_config(0.05, 20080226));
    run_ = new core::SimulationDataset(core::simulate_and_analyze(*config_));
    mono_path_ = new std::string(temp_path("shards_mono.store"));
    ASSERT_TRUE(core::write_store(*mono_path_, *run_, 20080226, 0.05).ok());
    mono_ = new store::EventStore;
    ASSERT_TRUE(mono_->open(*mono_path_).ok());

    dir_ = new std::string(temp_path("shards_dir"));
    core::ShardedBuildOptions options;
    options.shards = 3;
    ASSERT_TRUE(core::build_sharded_store(*dir_, *config_, options).ok());
    shards_ = new store::ShardStore;
    ASSERT_TRUE(shards_->open(*dir_).ok());
    ASSERT_TRUE(shards_->open_all().ok());
  }
  static void TearDownTestSuite() {
    delete shards_;
    shards_ = nullptr;
    remove_shard_dir(*dir_);
    delete dir_;
    dir_ = nullptr;
    delete mono_;
    mono_ = nullptr;
    std::remove(mono_path_->c_str());
    delete mono_path_;
    mono_path_ = nullptr;
    delete run_;
    run_ = nullptr;
    delete config_;
    config_ = nullptr;
  }

  static const core::Dataset& dataset() { return run_->dataset; }
  static const store::EventStore& mono() { return *mono_; }
  static const store::ShardStore& shards() { return *shards_; }

  static model::FleetConfig* config_;
  static core::SimulationDataset* run_;
  static std::string* mono_path_;
  static store::EventStore* mono_;
  static std::string* dir_;
  static store::ShardStore* shards_;
};

model::FleetConfig* ShardEquivalence::config_ = nullptr;
core::SimulationDataset* ShardEquivalence::run_ = nullptr;
std::string* ShardEquivalence::mono_path_ = nullptr;
store::EventStore* ShardEquivalence::mono_ = nullptr;
std::string* ShardEquivalence::dir_ = nullptr;
store::ShardStore* ShardEquivalence::shards_ = nullptr;

}  // namespace

TEST_F(ShardEquivalence, ManifestTotalsMatchTheRun) {
  const auto& m = shards().manifest();
  EXPECT_EQ(m.shards.size(), 3u);
  EXPECT_EQ(m.events, dataset().events().size());
  EXPECT_EQ(m.disks_total, dataset().inventory().disks.size());
  EXPECT_EQ(m.systems, dataset().inventory().systems.size());
  EXPECT_EQ(m.shelves, dataset().inventory().shelves.size());
  EXPECT_EQ(m.raid_groups, dataset().inventory().raid_groups.size());
  std::uint64_t events = 0;
  for (const auto& info : m.shards) events += info.events;
  EXPECT_EQ(events, m.events);
}

// The degenerate single-shard build must produce THE monolithic file: same
// simulation, same writer, so the one shard is byte-for-byte the store file
// a plain `store build` writes.
TEST_F(ShardEquivalence, SingleShardFileIsByteIdenticalToMonolithicStore) {
  const std::string dir = temp_path("shards_single");
  core::ShardedBuildOptions options;
  options.shards = 1;
  ASSERT_TRUE(core::build_sharded_store(dir, *config_, options).ok());
  store::ShardStore single;
  ASSERT_TRUE(single.open(dir).ok());
  ASSERT_EQ(single.shard_count(), 1u);
  EXPECT_EQ(read_file(dir + "/" + single.info(0).file), read_file(*mono_path_));
  remove_shard_dir(dir);
}

TEST_F(ShardEquivalence, MergedExposureAndMetaAreBitIdentical) {
  expect_exposure_identical(shards().manifest().exposure, mono().exposure());
  EXPECT_TRUE(shards().manifest().meta == mono().meta());
}

TEST_F(ShardEquivalence, AfrMatchesAcrossAllThreeBackends) {
  const auto from_dataset = core::compute_afr(core::Source(dataset()), "whole fleet");
  const auto from_mono = core::compute_afr(core::Source(mono()), "whole fleet");
  const auto from_shards = core::compute_afr(core::Source(shards()), "whole fleet");
  EXPECT_EQ(from_shards.disk_years, from_dataset.disk_years);
  EXPECT_EQ(from_shards.events, from_dataset.events);
  EXPECT_EQ(from_shards.disk_years, from_mono.disk_years);
  EXPECT_EQ(from_shards.events, from_mono.events);
  EXPECT_GT(from_shards.total_events(), 0u);

  const auto by_class_dataset = core::afr_by_class(core::Source(dataset()));
  const auto by_class_shards = core::afr_by_class(core::Source(shards()));
  ASSERT_EQ(by_class_shards.size(), by_class_dataset.size());
  for (std::size_t i = 0; i < by_class_shards.size(); ++i) {
    EXPECT_EQ(by_class_shards[i].label, by_class_dataset[i].label);
    EXPECT_EQ(by_class_shards[i].disk_years, by_class_dataset[i].disk_years);
    EXPECT_EQ(by_class_shards[i].events, by_class_dataset[i].events);
  }
}

TEST_F(ShardEquivalence, TimeBetweenFailuresMatchesAcrossBackends) {
  for (const auto scope : {core::Scope::kShelf, core::Scope::kRaidGroup}) {
    const auto from_dataset = core::time_between_failures(core::Source(dataset()), scope);
    const auto from_shards = core::time_between_failures(core::Source(shards()), scope);
    for (std::size_t series = 0; series < core::kSeriesCount; ++series) {
      EXPECT_EQ(from_shards.gaps[series], from_dataset.gaps[series]);
    }
    EXPECT_GT(from_shards.gap_count(core::kOverallSeries), 0u);
  }
}

TEST_F(ShardEquivalence, CorrelationMatchesAcrossBackends) {
  for (const auto scope : {core::Scope::kShelf, core::Scope::kRaidGroup}) {
    const auto from_dataset =
        core::failure_correlation_all_types(core::Source(dataset()), scope);
    const auto from_shards =
        core::failure_correlation_all_types(core::Source(shards()), scope);
    ASSERT_EQ(from_shards.size(), from_dataset.size());
    for (std::size_t i = 0; i < from_shards.size(); ++i) {
      EXPECT_EQ(from_shards[i].type, from_dataset[i].type);
      EXPECT_EQ(from_shards[i].windows_observed, from_dataset[i].windows_observed);
      EXPECT_EQ(from_shards[i].windows_with_one, from_dataset[i].windows_with_one);
      EXPECT_EQ(from_shards[i].windows_with_two, from_dataset[i].windows_with_two);
    }
  }
}

TEST_F(ShardEquivalence, LifetimeMatchesAcrossBackends) {
  const auto obs_dataset = core::disk_lifetime_observations(core::Source(dataset()));
  const auto obs_shards = core::disk_lifetime_observations(core::Source(shards()));
  ASSERT_EQ(obs_shards.size(), obs_dataset.size());
  for (std::size_t i = 0; i < obs_shards.size(); ++i) {
    EXPECT_EQ(obs_shards[i].duration, obs_dataset[i].duration);
    EXPECT_EQ(obs_shards[i].event, obs_dataset[i].event);
  }

  const auto report_dataset = core::disk_lifetime_report(core::Source(dataset()));
  const auto report_shards = core::disk_lifetime_report(core::Source(shards()));
  EXPECT_EQ(report_shards.disks, report_dataset.disks);
  EXPECT_EQ(report_shards.failures, report_dataset.failures);
  EXPECT_EQ(report_shards.survival.median(), report_dataset.survival.median());
}

TEST_F(ShardEquivalence, QueriesMatchTheSingleFileStore) {
  for (const auto group_by :
       {store::Query::GroupBy::kNone, store::Query::GroupBy::kSystemClass,
        store::Query::GroupBy::kFailureType, store::Query::GroupBy::kDiskFamily}) {
    store::Query query;
    query.group_by = group_by;
    const auto mono_result = store::run_query(mono(), query);
    store::QueryResult shard_result;
    ASSERT_TRUE(store::run_query(*shards_, query, &shard_result).ok());
    expect_query_identical(shard_result, mono_result);
  }

  store::Query windowed;
  windowed.group_by = store::Query::GroupBy::kFailureType;
  windowed.time_begin = 0.25 * config_->horizon_seconds;
  windowed.time_end = 0.5 * config_->horizon_seconds;
  const auto mono_result = store::run_query(mono(), windowed);
  store::QueryResult shard_result;
  ASSERT_TRUE(store::run_query(*shards_, windowed, &shard_result).ok());
  expect_query_identical(shard_result, mono_result);
}

// Full rehydration: the Dataset stitched from the shard directory (global
// id rebasing, two-pass disk order, canonical event re-sort) must equal the
// Dataset the live pipeline produced.
TEST_F(ShardEquivalence, DatasetFromShardsEqualsThePipelineDataset) {
  const core::Dataset rebuilt = core::dataset_from_store(shards());
  ASSERT_EQ(rebuilt.events().size(), dataset().events().size());
  for (std::size_t i = 0; i < rebuilt.events().size(); ++i) {
    EXPECT_TRUE(rebuilt.events()[i] == dataset().events()[i]) << "event " << i;
  }
  EXPECT_EQ(rebuilt.inventory().systems.size(), dataset().inventory().systems.size());
  EXPECT_EQ(rebuilt.inventory().shelves.size(), dataset().inventory().shelves.size());
  EXPECT_EQ(rebuilt.inventory().disks.size(), dataset().inventory().disks.size());
  EXPECT_EQ(rebuilt.inventory().raid_groups.size(),
            dataset().inventory().raid_groups.size());

  // And the analyses over the rebuilt dataset agree with the originals.
  const auto afr_rebuilt = core::afr_by_class(core::Source(rebuilt));
  const auto afr_original = core::afr_by_class(core::Source(dataset()));
  ASSERT_EQ(afr_rebuilt.size(), afr_original.size());
  for (std::size_t i = 0; i < afr_rebuilt.size(); ++i) {
    EXPECT_EQ(afr_rebuilt[i].disk_years, afr_original[i].disk_years);
    EXPECT_EQ(afr_rebuilt[i].events, afr_original[i].events);
  }
}

TEST_F(ShardEquivalence, SourceReportsTheShardBackend) {
  const core::Source source(shards());
  EXPECT_EQ(source.dataset(), nullptr);
  ASSERT_NE(source.parts(), nullptr);
  ASSERT_EQ(source.parts()->part_count(), shards().shard_count());
  for (std::size_t i = 0; i < shards().shard_count(); ++i) {
    EXPECT_EQ(&source.parts()->part(i), &shards().shard(i));
  }
}

// --- store::StoreOwner: the one place the store shape is sniffed ----------

// Every front end opens its input here: a shard directory is N parts, a
// STORCOL1 file is one, and anything else is a typed Error naming the path.
TEST_F(ShardEquivalence, StoreOwnerOpensEachShapeOrNamesThePath) {
  const std::string text = temp_path("owner_notes.txt");
  write_file(text, "not a store, just some notes\n");
  const std::string missing = temp_path("owner_missing.store");
  const struct {
    std::string path;
    store::StoreShape shape;
    store::ErrorCode code;
    std::size_t parts;
  } cases[] = {
      {*dir_, store::StoreShape::kShardDirectory, store::ErrorCode::kOk, 3},
      {*mono_path_, store::StoreShape::kFile, store::ErrorCode::kOk, 1},
      {text, store::StoreShape::kNotAStore, store::ErrorCode::kBadMagic, 0},
      {missing, store::StoreShape::kNotAStore, store::ErrorCode::kIo, 0},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(store::sniff_store(c.path), c.shape) << c.path;
    store::StoreOwner owner;
    const store::Error err = owner.open(c.path);
    EXPECT_EQ(err.code, c.code) << c.path << ": " << err.describe();
    if (!err.ok()) {
      EXPECT_NE(err.describe().find(c.path), std::string::npos) << err.describe();
      continue;
    }
    const store::StoreParts parts = owner.parts();
    EXPECT_EQ(parts.part_count(), c.parts) << c.path;
    EXPECT_EQ(owner.directory() != nullptr,
              c.shape == store::StoreShape::kShardDirectory);
    EXPECT_TRUE(parts.open_all().ok()) << c.path;
    EXPECT_EQ(parts.event_count(), mono().event_count()) << c.path;
  }
  std::remove(text.c_str());
}

// --- store::StoreParts: the one place id rebasing lives ---------------------

namespace {

/// The ShardEquivalence fleet, seen through the parts view.
class PartsView : public ShardEquivalence {};

}  // namespace

// A single file is one part with zero bases whose disks all count as
// initial: every id, replacement disks included, maps to itself.
TEST_F(PartsView, SingleFilePartHasIdentityIds) {
  const store::StoreParts parts(mono());
  ASSERT_EQ(parts.part_count(), 1u);
  EXPECT_EQ(&parts.part(0), &mono());

  const log::Inventory inv = mono().rebuild_inventory();
  ASSERT_GT(mono().meta().sim_replacements, 0u);  // replacement rows exist
  for (const auto& d : inv.disks) {
    EXPECT_EQ(parts.global_disk(0, d.id.value()), d.id.value());
    EXPECT_EQ(parts.global_system(0, d.system.value()), d.system.value());
    EXPECT_EQ(parts.global_shelf(0, d.shelf.value()), d.shelf.value());
    EXPECT_EQ(parts.global_raid_group(0, d.raid_group.value()), d.raid_group.value());
  }
  for (const auto& rg : inv.raid_groups) {
    EXPECT_EQ(parts.global_raid_group(0, rg.id.value()), rg.id.value());
  }

  std::size_t runs = 0;
  parts.for_each_disk_run([&](std::size_t part, std::size_t begin, std::size_t end) {
    ++runs;
    EXPECT_EQ(part, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, inv.disks.size());
  });
  EXPECT_EQ(runs, 1u);
  EXPECT_EQ(parts.disk_count(), inv.disks.size());
  EXPECT_EQ(parts.event_count(), mono().event_count());
}

// Over N shards the view's disk order — its runs, rebased — is exactly the
// monolithic store's rebuild_inventory() disk order, record for record.
TEST_F(PartsView, GlobalDiskOrderMatchesTheMonolithicInventory) {
  const store::StoreParts parts(shards());
  ASSERT_EQ(parts.part_count(), 3u);
  std::size_t parts_with_replacements = 0;
  for (std::size_t s = 0; s < shards().shard_count(); ++s) {
    if (shards().info(s).disks_total > shards().info(s).disks_initial) {
      ++parts_with_replacements;
    }
  }
  ASSERT_GE(parts_with_replacements, 2u);  // the interleaving is exercised

  const log::Inventory mono_inv = mono().rebuild_inventory();
  std::vector<log::Inventory> local;
  for (std::size_t s = 0; s < parts.part_count(); ++s) {
    local.push_back(parts.part(s).rebuild_inventory());
  }
  std::size_t next = 0;
  parts.for_each_disk_run([&](std::size_t s, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i, ++next) {
      ASSERT_LT(next, mono_inv.disks.size());
      const log::InventoryDisk& d = local[s].disks[i];
      const log::InventoryDisk& m = mono_inv.disks[next];
      EXPECT_EQ(parts.global_disk(s, d.id.value()), m.id.value()) << "disk " << next;
      EXPECT_EQ(parts.global_system(s, d.system.value()), m.system.value());
      EXPECT_EQ(parts.global_shelf(s, d.shelf.value()), m.shelf.value());
      EXPECT_EQ(parts.global_raid_group(s, d.raid_group.value()), m.raid_group.value());
      EXPECT_EQ(d.slot, m.slot);
      EXPECT_EQ(d.install_time, m.install_time);
      EXPECT_EQ(d.remove_time, m.remove_time);
    }
  });
  EXPECT_EQ(next, mono_inv.disks.size());
  EXPECT_EQ(parts.disk_count(), mono_inv.disks.size());
}

// The storsimd LRU drives the cache through ensure_open/release_shard; the
// round trip must be lossless — a released shard reopens to the same view
// and the open_count bookkeeping tracks exactly the mapped set.
TEST_F(ShardEquivalence, OpenShardReleaseShardRoundTrip) {
  store::ShardStore local;
  ASSERT_TRUE(local.open(*dir_).ok());
  EXPECT_EQ(local.open_count(), 0u);  // open() maps nothing

  ASSERT_TRUE(local.ensure_open(1).ok());
  EXPECT_TRUE(local.is_open(1));
  EXPECT_FALSE(local.is_open(0));
  EXPECT_EQ(local.open_count(), 1u);
  const std::uint64_t events = local.shard(1).event_count();

  local.release_shard(1);
  EXPECT_FALSE(local.is_open(1));
  EXPECT_EQ(local.open_count(), 0u);
  local.release_shard(1);  // releasing an already-closed shard is a no-op
  EXPECT_EQ(local.open_count(), 0u);

  ASSERT_TRUE(local.ensure_open(1).ok());  // revalidates and remaps
  EXPECT_EQ(local.shard(1).event_count(), events);
  ASSERT_TRUE(local.ensure_open(1).ok());  // idempotent while mapped
  EXPECT_EQ(local.open_count(), 1u);
}

// The sharded writer fans shards across the pool into disjoint slots; the
// directory must come out byte-identical for every thread count.
TEST(ShardedBuildThreadInvariance, DirectoryBytesIdenticalAcrossThreadCounts) {
  const auto config = model::standard_fleet_config(0.02, 7);
  core::ShardedBuildOptions options;
  options.shards = 4;

  const std::string dir_serial = temp_path("shards_t1");
  util::set_thread_count(1);
  ASSERT_TRUE(core::build_sharded_store(dir_serial, config, options).ok());

  const std::string dir_pool = temp_path("shards_t3");
  util::set_thread_count(3);
  ASSERT_TRUE(core::build_sharded_store(dir_pool, config, options).ok());
  util::set_thread_count(0);

  store::ShardStore a;
  store::ShardStore b;
  ASSERT_TRUE(a.open(dir_serial).ok());
  ASSERT_TRUE(b.open(dir_pool).ok());
  ASSERT_EQ(a.shard_count(), b.shard_count());
  for (std::size_t s = 0; s < a.shard_count(); ++s) {
    EXPECT_EQ(read_file(dir_serial + "/" + a.info(s).file),
              read_file(dir_pool + "/" + b.info(s).file))
        << "shard " << s;
  }

  // MANIFEST text matches too, modulo the peak-RSS stamp (a property of the
  // building process, monotone within this one, so later build >= earlier).
  store::ShardManifest ma = a.manifest();
  store::ShardManifest mb = b.manifest();
  ma.peak_rss_bytes = 0;
  mb.peak_rss_bytes = 0;
  EXPECT_EQ(store::render_manifest(ma), store::render_manifest(mb));

  remove_shard_dir(dir_serial);
  remove_shard_dir(dir_pool);
}

// ---------------------------------------------------------------------------
// Corruption: every damaged directory yields a typed Error (or, where a
// mutation lands in bytes no invariant covers, an open that still answers
// consistently) — never UB, never a crash.
// ---------------------------------------------------------------------------

namespace {

/// Builds a small 2-shard directory and hands back its path + manifest text.
class ShardCorruption : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(temp_path("shards_corrupt"));
    core::ShardedBuildOptions options;
    options.shards = 2;
    ASSERT_TRUE(core::build_sharded_store(
                    *dir_, model::standard_fleet_config(0.01, 99), options)
                    .ok());
    manifest_path_ = new std::string(*dir_ + "/" + std::string(store::kManifestFileName));
    manifest_text_ = new std::string(read_file(*manifest_path_));
    ASSERT_FALSE(manifest_text_->empty());
    shard0_path_ = new std::string(*dir_ + "/shard-0000.store");
    shard0_bytes_ = new std::string(read_file(*shard0_path_));
    ASSERT_FALSE(shard0_bytes_->empty());
  }
  static void TearDownTestSuite() {
    write_file(*manifest_path_, *manifest_text_);  // restore before cleanup
    write_file(*shard0_path_, *shard0_bytes_);
    remove_shard_dir(*dir_);
    delete shard0_bytes_;
    shard0_bytes_ = nullptr;
    delete shard0_path_;
    shard0_path_ = nullptr;
    delete manifest_text_;
    manifest_text_ = nullptr;
    delete manifest_path_;
    manifest_path_ = nullptr;
    delete dir_;
    dir_ = nullptr;
  }
  /// Every mutating test restores the pristine files on exit.
  void TearDown() override {
    write_file(*manifest_path_, *manifest_text_);
    write_file(*shard0_path_, *shard0_bytes_);
  }

  static std::string* dir_;
  static std::string* manifest_path_;
  static std::string* manifest_text_;
  static std::string* shard0_path_;
  static std::string* shard0_bytes_;
};

std::string* ShardCorruption::dir_ = nullptr;
std::string* ShardCorruption::manifest_path_ = nullptr;
std::string* ShardCorruption::manifest_text_ = nullptr;
std::string* ShardCorruption::shard0_path_ = nullptr;
std::string* ShardCorruption::shard0_bytes_ = nullptr;

}  // namespace

TEST_F(ShardCorruption, MissingManifestIsTyped) {
  std::remove(manifest_path_->c_str());
  store::ShardStore shards;
  const auto err = shards.open(*dir_);
  EXPECT_FALSE(err.ok());
  EXPECT_NE(err.code, store::ErrorCode::kOk);
}

// A MANIFEST that passes the sniff but fails to parse still names the
// directory, which the parse error alone does not.
TEST_F(ShardCorruption, StoreOwnerNamesTheDirectoryOnAManifestError) {
  write_file(*manifest_path_, std::string(store::kManifestMagic));
  ASSERT_EQ(store::sniff_store(*dir_), store::StoreShape::kShardDirectory);
  store::StoreOwner owner;
  const auto err = owner.open(*dir_);
  EXPECT_FALSE(err.ok());
  EXPECT_NE(err.describe().find(*dir_), std::string::npos) << err.describe();
}

TEST_F(ShardCorruption, TruncatedManifestIsTyped) {
  const std::size_t len = manifest_text_->size();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{1}, std::size_t{10},
                                 len / 2}) {
    write_file(*manifest_path_, manifest_text_->substr(0, keep));
    store::ShardStore shards;
    const auto err = shards.open(*dir_);
    EXPECT_FALSE(err.ok()) << "kept " << keep << " of " << len << " bytes";
  }
  // Dropping only the trailing newline leaves the CRC line intact — the one
  // truncation that may legitimately still parse, and then it must parse to
  // exactly the pristine manifest.
  write_file(*manifest_path_, manifest_text_->substr(0, len - 1));
  store::ShardStore shards;
  store::ShardManifest reference;
  ASSERT_TRUE(store::parse_manifest(*manifest_text_, &reference).ok());
  if (shards.open(*dir_).ok()) {
    EXPECT_EQ(store::render_manifest(shards.manifest()),
              store::render_manifest(reference));
  }
}

// Exhaustive single-byte fuzz of the MANIFEST through the parser: every
// mutation must either be rejected with a typed Error (the CRC line covers
// the whole text) or — if it lands in bytes outside every invariant —
// produce a manifest identical to the pristine parse.
TEST_F(ShardCorruption, ManifestByteFlipsAreRejectedOrHarmless) {
  store::ShardManifest reference;
  ASSERT_TRUE(store::parse_manifest(*manifest_text_, &reference).ok());
  const std::string reference_render = store::render_manifest(reference);

  std::size_t rejected = 0;
  for (std::size_t pos = 0; pos < manifest_text_->size(); ++pos) {
    std::string mutated = *manifest_text_;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    store::ShardManifest parsed;
    const auto err = store::parse_manifest(mutated, &parsed);
    if (err.ok()) {
      EXPECT_EQ(store::render_manifest(parsed), reference_render) << "pos " << pos;
    } else {
      EXPECT_NE(err.code, store::ErrorCode::kOk) << "pos " << pos;
      ++rejected;
    }
  }
  // The CRC must actually bite: virtually every flip is a rejection.
  EXPECT_GT(rejected, manifest_text_->size() / 2);
}

// A MANIFEST whose CRC is valid but whose shard count is absurd must come
// back as a typed Error: the count is untrusted, so nothing may be sized by
// it before the shard lines are read.
TEST_F(ShardCorruption, HugeShardCountWithValidCrcIsTyped) {
  std::string body = manifest_text_->substr(0, manifest_text_->rfind("crc 0x"));
  const std::string count_line = "\nshards 2\n";
  const std::size_t at = body.find(count_line);
  ASSERT_NE(at, std::string::npos);
  body.replace(at, count_line.size(), "\nshards 1099511627776\n");
  char crc_line[32];
  std::snprintf(crc_line, sizeof crc_line, "crc 0x%016x\n",
                static_cast<unsigned>(store::crc32(body.data(), body.size())));
  const std::string sealed = body + crc_line;

  store::ShardManifest parsed;
  const auto err = store::parse_manifest(sealed, &parsed);
  EXPECT_EQ(err.code, store::ErrorCode::kTruncated) << err.describe();

  write_file(*manifest_path_, sealed);
  store::StoreOwner owner;
  EXPECT_FALSE(owner.open(*dir_).ok());
}

TEST_F(ShardCorruption, ReorderedManifestLinesAreTyped) {
  const std::size_t first_nl = manifest_text_->find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  const std::size_t second_nl = manifest_text_->find('\n', first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  const std::string line1 = manifest_text_->substr(0, first_nl + 1);
  const std::string line2 = manifest_text_->substr(first_nl + 1, second_nl - first_nl);
  const std::string swapped = line2 + line1 + manifest_text_->substr(second_nl + 1);
  ASSERT_NE(swapped, *manifest_text_);
  store::ShardManifest parsed;
  EXPECT_FALSE(store::parse_manifest(swapped, &parsed).ok());
}

TEST_F(ShardCorruption, MissingShardFileIsTyped) {
  std::remove(shard0_path_->c_str());
  store::ShardStore shards;
  const auto err = shards.open(*dir_);
  EXPECT_FALSE(err.ok());
}

TEST_F(ShardCorruption, TruncatedShardFileIsTyped) {
  write_file(*shard0_path_, shard0_bytes_->substr(0, shard0_bytes_->size() / 2));
  store::ShardStore shards;
  EXPECT_FALSE(shards.open(*dir_).ok());
}

TEST_F(ShardCorruption, ShardHeaderCorruptionIsCaughtAtOpen) {
  std::string mutated = *shard0_bytes_;
  mutated[4] = static_cast<char>(mutated[4] ^ 0x5a);  // inside the header
  write_file(*shard0_path_, mutated);
  store::ShardStore shards;
  EXPECT_FALSE(shards.open(*dir_).ok());  // header CRC cross-check fires
}

// Body corruption is past the cheap open()-time checks; it must surface as
// a typed Error on first full validation (ensure_open), and shard_checked
// must convert that into an exception rather than returning a broken view.
TEST_F(ShardCorruption, ShardBodyCorruptionIsCaughtOnFirstAccess) {
  std::size_t caught = 0;
  const std::size_t size = shard0_bytes_->size();
  for (const std::size_t pos : {store::kHeaderSize + 1, size / 3, size / 2,
                                2 * size / 3, size - 16}) {
    std::string mutated = *shard0_bytes_;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    write_file(*shard0_path_, mutated);

    store::ShardStore shards;
    if (!shards.open(*dir_).ok()) {
      ++caught;  // mutation landed in header/size-checked territory
      continue;
    }
    const auto err = shards.ensure_open(0);
    if (!err.ok()) {
      EXPECT_NE(err.code, store::ErrorCode::kOk) << "pos " << pos;
      EXPECT_THROW(shards.shard_checked(0), std::runtime_error) << "pos " << pos;
      ++caught;
    } else {
      // Landed in padding no invariant covers: the shard must still answer.
      EXPECT_EQ(shards.shard(0).event_count(), shards.info(0).events);
    }
  }
  EXPECT_GT(caught, 0u);  // the column/footer CRCs must actually bite
}

// Regression: a shard failing lazy validation must name the offending file
// in the error detail. A mid-analysis failure over a directory of dozens of
// shards is undebuggable when the error says only "bad CRC".
TEST_F(ShardCorruption, LazyValidationErrorNamesTheShardPath) {
  std::size_t named = 0;
  const std::size_t size = shard0_bytes_->size();
  for (const std::size_t pos : {store::kHeaderSize + 1, size / 3, size / 2,
                                2 * size / 3, size - 16}) {
    std::string mutated = *shard0_bytes_;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    write_file(*shard0_path_, mutated);

    store::ShardStore shards;
    if (!shards.open(*dir_).ok()) continue;  // caught by the cheap checks
    const auto err = shards.ensure_open(0);
    if (err.ok()) continue;  // landed in padding no invariant covers
    EXPECT_NE(err.detail.find("shard-0000.store"), std::string::npos)
        << "pos " << pos << ": " << err.describe();
    ++named;
  }
  EXPECT_GT(named, 0u);  // at least one flip must reach lazy validation
}
