// Cross-cutting property tests: statistical invariants that must hold across
// fleet scale, seeds, and parameter sweeps.
#include <gtest/gtest.h>

#include "core/afr.h"
#include "core/burstiness.h"
#include "core/pipeline.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "sim/scenario.h"
#include "util/parallel.h"

namespace core = storsubsim::core;
namespace model = storsubsim::model;
namespace sim = storsubsim::sim;

namespace {

core::AfrBreakdown afr_at_scale(double scale, std::uint64_t seed) {
  const auto sd = core::simulate_and_analyze(model::standard_fleet_config(scale, seed),
                                             sim::SimParams::standard(), false);
  return core::compute_afr(sd.dataset);
}

}  // namespace

class ScaleInvariance : public ::testing::TestWithParam<double> {};

TEST_P(ScaleInvariance, AfrIndependentOfFleetScale) {
  // AFR is a rate: it must not drift with the fleet size (catches any
  // accounting that scales with counts instead of exposure).
  const auto reference = afr_at_scale(0.2, 42);
  const auto scaled = afr_at_scale(GetParam(), 42);
  EXPECT_NEAR(scaled.total_afr_pct(), reference.total_afr_pct(),
              0.08 * reference.total_afr_pct())
      << "scale=" << GetParam();
  for (const auto type : model::kAllFailureTypes) {
    EXPECT_NEAR(scaled.afr_pct(type), reference.afr_pct(type),
                0.15 * reference.afr_pct(type) + 0.02)
        << model::to_string(type);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, ScaleInvariance, ::testing::Values(0.05, 0.1, 0.4));

class SeedStability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedStability, HeadlineStatisticsStableAcrossSeeds) {
  const auto sd = core::simulate_and_analyze(
      model::standard_fleet_config(0.15, GetParam()), sim::SimParams::standard(), false);
  core::Filter no_h;
  no_h.exclude_family_h = true;
  const auto ds = sd.dataset.filter(no_h);

  // Finding 2's inversion must hold for every seed.
  core::Filter nearline;
  nearline.system_class = model::SystemClass::kNearLine;
  core::Filter lowend;
  lowend.system_class = model::SystemClass::kLowEnd;
  const auto nl_cohort = ds.filter(nearline);
  const auto le_cohort = ds.filter(lowend);
  const auto nl = core::compute_afr(nl_cohort);
  const auto le = core::compute_afr(le_cohort);
  EXPECT_GT(nl.afr_pct(model::FailureType::kDisk), le.afr_pct(model::FailureType::kDisk));
  EXPECT_LT(nl.total_afr_pct(), le.total_afr_pct());

  // Shelf-scope burstiness exceeds group-scope for every seed (Finding 9).
  const auto shelf = core::time_between_failures(sd.dataset, core::Scope::kShelf);
  const auto group = core::time_between_failures(sd.dataset, core::Scope::kRaidGroup);
  EXPECT_GT(shelf.fraction_within(core::kOverallSeries, 1e4),
            group.fraction_within(core::kOverallSeries, 1e4));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedStability, ::testing::Values(1u, 777u, 424242u));

class DualPathFraction : public ::testing::TestWithParam<double> {};

TEST_P(DualPathFraction, MoreDualPathsLowerInterconnectAfr) {
  model::CohortSpec c;
  c.label = "dual-sweep";
  c.cls = model::SystemClass::kHighEnd;
  c.shelf_model = {'B'};
  c.disk_mix = {{{'D', 2}, 1.0}};
  c.num_systems = 2500;
  c.mean_shelves_per_system = 6.0;
  c.mean_disks_per_shelf = 12.0;
  c.raid_group_size = 8;
  c.raid_span_shelves = 3;

  auto run = [&](double dual_fraction) {
    c.dual_path_fraction = dual_fraction;
    const auto fs = sim::simulate_fleet(sim::cohort_fleet(c, 1.0, 99));
    const auto ds = core::dataset_in_memory(fs.fleet, fs.result);
    return core::compute_afr(ds).afr_pct(model::FailureType::kPhysicalInterconnect);
  };
  const double all_single = run(0.0);
  const double mixed = run(GetParam());
  const double all_dual = run(1.0);
  EXPECT_LT(all_dual, 0.65 * all_single);
  EXPECT_LT(mixed, all_single);
  EXPECT_GT(mixed, all_dual);
}

INSTANTIATE_TEST_SUITE_P(Fractions, DualPathFraction, ::testing::Values(0.3, 0.6));

// The fleet-parallel execution layer's contract: the full pipeline
// (simulate -> snapshot and log round trips -> classify) and the store
// bytes are bit-identical for any worker count. Exercised at two scales; the
// larger one is big enough to engage the sharded log pipeline. The uneven
// thread counts cut the snapshot text into uneven line-range slices.
class ThreadInvariance : public ::testing::TestWithParam<double> {
 protected:
  void TearDown() override { storsubsim::util::set_thread_count(0); }
};

namespace {

constexpr unsigned kThreadCounts[] = {1, 3, 4, 7};

/// Reports the first inventory record that differs, kind by kind.
template <typename Record>
void expect_same_records(const std::vector<Record>& got, const std::vector<Record>& want,
                         const char* kind, unsigned threads) {
  ASSERT_EQ(got.size(), want.size()) << kind << " at " << threads << " threads";
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i] == want[i]) << kind << " " << i << " at " << threads << " threads";
  }
}

}  // namespace

TEST_P(ThreadInvariance, PipelineBitIdenticalAcrossThreadCounts) {
  const auto config = model::standard_fleet_config(GetParam(), 11);
  storsubsim::util::set_thread_count(1);
  const auto serial = core::simulate_and_analyze(config);

  for (const unsigned threads : kThreadCounts) {
    storsubsim::util::set_thread_count(threads);
    const auto parallel = core::simulate_and_analyze(config);

    ASSERT_EQ(serial.dataset.events().size(), parallel.dataset.events().size()) << threads;
    for (std::size_t i = 0; i < serial.dataset.events().size(); ++i) {
      ASSERT_EQ(serial.dataset.events()[i], parallel.dataset.events()[i])
          << "event " << i << " at " << threads << " threads";
    }
    const auto& want = serial.dataset.inventory();
    const auto& got = parallel.dataset.inventory();
    EXPECT_EQ(got.horizon_seconds, want.horizon_seconds) << threads;
    expect_same_records(got.systems, want.systems, "system", threads);
    expect_same_records(got.shelves, want.shelves, "shelf", threads);
    expect_same_records(got.raid_groups, want.raid_groups, "raid group", threads);
    expect_same_records(got.disks, want.disks, "disk", threads);

    EXPECT_EQ(serial.counters.events_by_type, parallel.counters.events_by_type) << threads;
    EXPECT_EQ(serial.counters.replacements, parallel.counters.replacements) << threads;
    const auto& a = serial.pipeline;
    const auto& b = parallel.pipeline;
    EXPECT_EQ(a.log_lines_written, b.log_lines_written) << threads;
    EXPECT_EQ(a.log_lines_parsed, b.log_lines_parsed) << threads;
    EXPECT_EQ(a.raid_records, b.raid_records) << threads;
    EXPECT_EQ(a.failures_classified, b.failures_classified) << threads;
    EXPECT_EQ(a.duplicates_dropped, b.duplicates_dropped) << threads;
    EXPECT_EQ(a.missing_disk_dropped, b.missing_disk_dropped) << threads;
  }
}

TEST_P(ThreadInvariance, StoreBytesIdenticalAcrossThreadCounts) {
  // The columnar store extends the determinism contract to the serialized
  // artifact: the same run must produce byte-identical store files no matter
  // how many workers fill the topology columns and encode the class shards
  // (docs/STORE.md).
  const auto config = model::standard_fleet_config(GetParam(), 11);
  auto image_of = [](const core::SimulationDataset& run) {
    storsubsim::store::StoreContents contents;
    contents.inventory = &run.dataset.inventory();
    contents.events = run.dataset.events();
    contents.meta = core::make_store_meta(run.counters, run.pipeline);
    contents.seed = 11;
    contents.scale = 1.0;
    std::string image;
    EXPECT_TRUE(storsubsim::store::build_store_image(contents, &image).ok());
    return image;
  };
  storsubsim::util::set_thread_count(1);
  const std::string serial_image = image_of(core::simulate_and_analyze(config));

  for (const unsigned threads : kThreadCounts) {
    storsubsim::util::set_thread_count(threads);
    const std::string parallel_image = image_of(core::simulate_and_analyze(config));
    ASSERT_EQ(serial_image.size(), parallel_image.size()) << threads;
    EXPECT_EQ(serial_image, parallel_image) << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, ThreadInvariance, ::testing::Values(0.05, 0.2));

TEST(CalibrationInvariant, WindowNormalizationPreservesMeanRates) {
  // Cranking the modulation multipliers up (with the built-in average-
  // multiplier normalization) must not move the mean protocol/performance
  // rates, only their clustering.
  auto hot = sim::SimParams::standard();
  hot.driver.multiplier = 200.0;
  hot.congestion.multiplier = 300.0;
  const auto config = model::standard_fleet_config(0.15, 5);
  const auto base = core::simulate_and_analyze(config, sim::SimParams::standard(), false);
  const auto modulated = core::simulate_and_analyze(config, hot, false);
  const auto b = core::compute_afr(base.dataset);
  const auto m = core::compute_afr(modulated.dataset);
  EXPECT_NEAR(m.afr_pct(model::FailureType::kProtocol),
              b.afr_pct(model::FailureType::kProtocol),
              0.15 * b.afr_pct(model::FailureType::kProtocol));
  EXPECT_NEAR(m.afr_pct(model::FailureType::kPerformance),
              b.afr_pct(model::FailureType::kPerformance),
              0.15 * b.afr_pct(model::FailureType::kPerformance));
}

TEST(CalibrationInvariant, HawkesNormalizationPreservesDiskRate) {
  auto heavy = sim::SimParams::standard();
  heavy.hawkes_branching = 0.25;
  const auto config = model::standard_fleet_config(0.15, 5);
  const auto base = core::simulate_and_analyze(config, sim::SimParams::standard(), false);
  const auto hawkes = core::simulate_and_analyze(config, heavy, false);
  EXPECT_NEAR(core::compute_afr(hawkes.dataset).afr_pct(model::FailureType::kDisk),
              core::compute_afr(base.dataset).afr_pct(model::FailureType::kDisk),
              0.08 * core::compute_afr(base.dataset).afr_pct(model::FailureType::kDisk));
}
