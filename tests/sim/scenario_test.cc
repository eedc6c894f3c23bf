// Scenario helpers: toggles preserve calibrated means while removing
// correlation; span ablation produces the configured spans.
#include "sim/scenario.h"

#include <array>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "log/line_writer.h"
#include "sim/log_bridge.h"

namespace sim = storsubsim::sim;
namespace model = storsubsim::model;

TEST(ApplyToggles, KnockoutsNeutralizeMechanisms) {
  sim::MechanismToggles off;
  off.shelf_badness = false;
  off.hawkes = false;
  off.environment_windows = false;
  off.interconnect_clusters = false;
  off.driver_windows = false;
  off.congestion_windows = false;
  const auto p = sim::apply_toggles(sim::SimParams::standard(), off);
  EXPECT_GE(p.shelf_badness_shape, 1e5);
  EXPECT_DOUBLE_EQ(p.hawkes_branching, 0.0);
  EXPECT_DOUBLE_EQ(p.environment.multiplier, 1.0);
  EXPECT_LE(p.pi_cluster_prob_shelf, 0.02);
  EXPECT_DOUBLE_EQ(p.driver.multiplier, 1.0);
  EXPECT_DOUBLE_EQ(p.protocol_incidents.clustered_fraction, 0.0);
  EXPECT_DOUBLE_EQ(p.congestion.multiplier, 1.0);
  EXPECT_DOUBLE_EQ(p.performance_incidents.clustered_fraction, 0.0);
}

TEST(ApplyToggles, DefaultTogglesChangeNothing) {
  const auto p = sim::apply_toggles(sim::SimParams::standard(), sim::MechanismToggles{});
  const auto q = sim::SimParams::standard();
  EXPECT_DOUBLE_EQ(p.shelf_badness_shape, q.shelf_badness_shape);
  EXPECT_DOUBLE_EQ(p.hawkes_branching, q.hawkes_branching);
  EXPECT_DOUBLE_EQ(p.pi_cluster_prob_shelf, q.pi_cluster_prob_shelf);
  EXPECT_DOUBLE_EQ(p.protocol_incidents.clustered_fraction,
                   q.protocol_incidents.clustered_fraction);
}

TEST(SpanAblation, ProducesConfiguredSpan) {
  for (const std::size_t span : {1u, 3u}) {
    auto fs = sim::run_span_ablation(span, 0.02, 5);
    for (const auto& group : fs.fleet.raid_groups()) {
      EXPECT_LE(group.shelf_span(), span);
    }
    if (span == 1) {
      for (const auto& group : fs.fleet.raid_groups()) {
        EXPECT_EQ(group.shelf_span(), 1u);
      }
    }
  }
}

TEST(RunStandard, ProducesAllClassesAndFailureTypes) {
  auto fs = sim::run_standard(0.02, 77);
  std::array<bool, 4> class_seen{};
  for (const auto& system : fs.fleet.systems()) {
    class_seen[model::index_of(system.cls)] = true;
  }
  for (const auto seen : class_seen) EXPECT_TRUE(seen);
  for (const auto count : fs.result.counters.events_by_type) EXPECT_GT(count, 0u);
}

TEST(LogBridge, DeviceAddressStable) {
  auto fs = sim::run_standard(0.005, 78);
  ASSERT_FALSE(fs.result.failures.empty());
  const auto& failure = fs.result.failures[0];
  // "adapter.target": the shelf's position in its system, then the slot
  // offset by 16, as in the paper's "8.24".
  const auto& disk = fs.fleet.disk(failure.disk);
  const std::string address = std::to_string(fs.fleet.shelf(disk.shelf).index_in_system + 1) +
                              "." + std::to_string(disk.slot + 16);
  const std::span<const sim::SimFailure> one(&failure, 1);
  storsubsim::log::LineWriter first;
  storsubsim::log::LineWriter second;
  sim::write_failure_logs(first, fs.fleet, one);
  sim::write_failure_logs(second, fs.fleet, one);
  EXPECT_EQ(first.view(), second.view());
  // Every terminal line names the disk as "Disk <address> S/N [...]".
  EXPECT_NE(first.view().find("Disk " + address + " S/N ["), std::string_view::npos)
      << first.view();
}
