#include "core/store_bridge.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

namespace storsubsim::core {

store::StoreMeta make_store_meta(const sim::SimCounters& counters,
                                 const PipelineStats& pipeline) {
  store::StoreMeta meta;
  for (std::size_t i = 0; i < meta.sim_events_by_type.size(); ++i) {
    meta.sim_events_by_type[i] = counters.events_by_type[i];
  }
  meta.sim_replacements = counters.replacements;
  meta.sim_triggered_disk_failures = counters.triggered_disk_failures;
  meta.sim_shelf_faults = counters.shelf_faults;
  meta.sim_path_faults = counters.path_faults;
  meta.sim_masked_path_faults = counters.masked_path_faults;
  meta.log_lines_written = pipeline.log_lines_written;
  meta.log_lines_parsed = pipeline.log_lines_parsed;
  meta.raid_records = pipeline.raid_records;
  meta.failures_classified = pipeline.failures_classified;
  meta.duplicates_dropped = pipeline.duplicates_dropped;
  meta.missing_disk_dropped = pipeline.missing_disk_dropped;
  return meta;
}

sim::SimCounters sim_counters_from_meta(const store::StoreMeta& meta) {
  sim::SimCounters counters;
  for (std::size_t i = 0; i < counters.events_by_type.size(); ++i) {
    counters.events_by_type[i] = static_cast<std::size_t>(meta.sim_events_by_type[i]);
  }
  counters.replacements = static_cast<std::size_t>(meta.sim_replacements);
  counters.triggered_disk_failures =
      static_cast<std::size_t>(meta.sim_triggered_disk_failures);
  counters.shelf_faults = static_cast<std::size_t>(meta.sim_shelf_faults);
  counters.path_faults = static_cast<std::size_t>(meta.sim_path_faults);
  counters.masked_path_faults = static_cast<std::size_t>(meta.sim_masked_path_faults);
  return counters;
}

PipelineStats pipeline_stats_from_meta(const store::StoreMeta& meta) {
  PipelineStats stats;
  stats.log_lines_written = static_cast<std::size_t>(meta.log_lines_written);
  stats.log_lines_parsed = static_cast<std::size_t>(meta.log_lines_parsed);
  stats.raid_records = static_cast<std::size_t>(meta.raid_records);
  stats.failures_classified = static_cast<std::size_t>(meta.failures_classified);
  stats.duplicates_dropped = static_cast<std::size_t>(meta.duplicates_dropped);
  stats.missing_disk_dropped = static_cast<std::size_t>(meta.missing_disk_dropped);
  return stats;
}

store::Error write_store(const std::string& path, const SimulationDataset& run,
                         std::uint64_t seed, double scale) {
  store::StoreContents contents;
  contents.inventory = &run.dataset.inventory();
  contents.events = run.dataset.events();
  contents.meta = make_store_meta(run.counters, run.pipeline);
  contents.seed = seed;
  contents.scale = scale;
  return store::write_store_file(path, contents);
}

namespace {

/// Appends from[begin, end) to `into`. A run that is all of `from`, going
/// into an empty vector, moves instead: a single-file store's inventory is
/// rehydrated without a copy.
template <typename T>
void append_run(std::vector<T>& into, std::vector<T>& from, std::size_t begin,
                std::size_t end) {
  if (into.empty() && begin == 0 && end == from.size()) {
    into = std::move(from);
    return;
  }
  into.insert(into.end(), from.begin() + static_cast<std::ptrdiff_t>(begin),
              from.begin() + static_cast<std::ptrdiff_t>(end));
}

}  // namespace

Dataset dataset_from_store(const store::StoreParts& parts) {
  // Each part's inventory with its ids rebased in place, stitched in the
  // global order: systems/shelves/RAID groups part by part, disks in the
  // monolithic disk order the view defines.
  log::Inventory inv;
  inv.horizon_seconds = parts.horizon_seconds();
  std::vector<std::vector<log::InventoryDisk>> local_disks(parts.part_count());
  for (std::size_t s = 0; s < parts.part_count(); ++s) {
    log::Inventory local = parts.part(s).rebuild_inventory();
    const auto system = [&](model::SystemId id) {
      return model::SystemId(static_cast<std::uint32_t>(parts.global_system(s, id.value())));
    };
    const auto shelf = [&](model::ShelfId id) {
      return model::ShelfId(static_cast<std::uint32_t>(parts.global_shelf(s, id.value())));
    };
    const auto raid_group = [&](model::RaidGroupId id) {
      return model::RaidGroupId(
          static_cast<std::uint32_t>(parts.global_raid_group(s, id.value())));
    };
    for (auto& sys : local.systems) sys.id = system(sys.id);
    for (auto& sh : local.shelves) {
      sh.id = shelf(sh.id);
      sh.system = system(sh.system);
    }
    for (auto& rg : local.raid_groups) {
      rg.id = raid_group(rg.id);
      rg.system = system(rg.system);
    }
    for (auto& d : local.disks) {
      d.id = model::DiskId(static_cast<std::uint32_t>(parts.global_disk(s, d.id.value())));
      d.system = system(d.system);
      d.shelf = shelf(d.shelf);
      d.raid_group = raid_group(d.raid_group);
    }
    append_run(inv.systems, local.systems, 0, local.systems.size());
    append_run(inv.shelves, local.shelves, 0, local.shelves.size());
    append_run(inv.raid_groups, local.raid_groups, 0, local.raid_groups.size());
    local_disks[s] = std::move(local.disks);
  }
  parts.for_each_disk_run([&](std::size_t s, std::size_t begin, std::size_t end) {
    append_run(inv.disks, local_disks[s], begin, end);
  });
  local_disks.clear();

  std::vector<FailureEvent> events;
  events.reserve(static_cast<std::size_t>(parts.event_count()));
  for (std::size_t s = 0; s < parts.part_count(); ++s) {
    for (const auto cls : model::kAllSystemClasses) {
      const store::EventView& view = parts.part(s).events(cls);
      for (std::size_t i = 0; i < view.size(); ++i) {
        events.push_back(FailureEvent{
            view.time[i],
            model::DiskId(static_cast<std::uint32_t>(parts.global_disk(s, view.disk[i]))),
            model::SystemId(
                static_cast<std::uint32_t>(parts.global_system(s, view.system[i]))),
            static_cast<model::FailureType>(view.type[i])});
      }
    }
  }
  // Restore the canonical global order across classes and parts (each
  // class of each part is already (time, disk, type)-sorted, and global ids
  // make the key identical to the monolithic one).
  std::sort(events.begin(), events.end(), log::CanonicalOrder{});
  return Dataset(std::make_shared<log::Inventory>(std::move(inv)), std::move(events));
}

SimulationDataset simulation_dataset_from_store(const store::StoreParts& parts) {
  return SimulationDataset{dataset_from_store(parts), sim_counters_from_meta(parts.meta()),
                           pipeline_stats_from_meta(parts.meta())};
}

}  // namespace storsubsim::core
