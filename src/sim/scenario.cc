#include "sim/scenario.h"


namespace storsubsim::sim {

FleetSimulation run_standard(double scale, std::uint64_t seed) {
  return simulate_fleet(model::standard_fleet_config(scale, seed));
}

model::FleetConfig cohort_fleet(const model::CohortSpec& cohort, double scale,
                                std::uint64_t seed) {
  model::FleetConfig config;
  config.cohorts.push_back(cohort);
  config.scale = scale;
  config.seed = seed;
  model::validate(config);
  return config;
}

FleetSimulation run_span_ablation(std::size_t span, double scale, std::uint64_t seed,
                                  const SimParams& params) {
  model::CohortSpec cohort;
  cohort.label = "span-ablation/" + std::to_string(span);
  cohort.cls = model::SystemClass::kMidRange;
  cohort.shelf_model = model::ShelfModelName{'B'};
  cohort.disk_mix = {{{'D', 2}, 1.0}};
  cohort.num_systems = 3000;
  cohort.mean_shelves_per_system = 7.0;
  cohort.mean_disks_per_shelf = 12.0;
  cohort.raid_group_size = 8;
  cohort.raid6_fraction = 0.3;
  cohort.raid_span_shelves = span;
  cohort.dual_path_fraction = 0.0;
  return simulate_fleet(cohort_fleet(cohort, scale, seed), params);
}

SimParams apply_toggles(SimParams params, const MechanismToggles& toggles) {
  if (!toggles.shelf_badness) {
    // Gamma(shape, 1/shape) concentrates at 1 as shape -> inf.
    params.shelf_badness_shape = 1e6;
  }
  if (!toggles.hawkes) {
    params.hawkes_branching = 0.0;
  }
  if (!toggles.environment_windows) {
    params.environment.multiplier = 1.0;
  }
  if (!toggles.interconnect_clusters) {
    // q == 0 switches the fault processes to exactly-one-disk semantics; the
    // per-disk rate calibration is preserved by the simulator's construction.
    params.pi_cluster_prob_shelf = 0.0;
    params.pi_cluster_prob_path = 0.0;
  }
  if (!toggles.driver_windows) {
    params.driver.multiplier = 1.0;
    params.protocol_incidents.clustered_fraction = 0.0;
  }
  if (!toggles.congestion_windows) {
    params.congestion.multiplier = 1.0;
    params.performance_incidents.clustered_fraction = 0.0;
  }
  return params;
}

FleetSimulation run_mechanism_ablation(const MechanismToggles& toggles, double scale,
                                       std::uint64_t seed) {
  return simulate_fleet(model::standard_fleet_config(scale, seed),
                        apply_toggles(SimParams::standard(), toggles));
}

}  // namespace storsubsim::sim
