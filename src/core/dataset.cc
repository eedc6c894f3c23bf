#include "core/dataset.h"

#include <algorithm>
#include <stdexcept>

#include "model/time.h"

namespace storsubsim::core {

bool Filter::matches(const log::InventorySystem& system) const {
  if (system_class && system.cls != *system_class) return false;
  if (disk_model && !(system.disk_model == *disk_model)) return false;
  if (disk_family && system.disk_model.family != *disk_family) return false;
  if (shelf_model && !(system.shelf_model == *shelf_model)) return false;
  if (paths && system.paths != *paths) return false;
  if (exclude_family_h && system.disk_model.family == 'H') return false;
  return true;
}

Dataset::Dataset(std::shared_ptr<const log::Inventory> inventory,
                 std::vector<FailureEvent> events)
    : inventory_(std::move(inventory)) {
  if (!inventory_) throw std::invalid_argument("Dataset: null inventory");
  system_mask_.assign(inventory_->systems.size(), 1);
  events_.reserve(events.size());
  for (auto& e : events) {
    if (!e.disk.valid() || e.disk.value() >= inventory_->disks.size()) {
      ++dropped_unknown_disk_;
      continue;
    }
    // Trust the inventory's system mapping over the event's (log lines can
    // be replayed across head failovers).
    e.system = inventory_->disks[e.disk.value()].system;
    events_.push_back(e);
  }
  std::sort(events_.begin(), events_.end(),
            [](const FailureEvent& a, const FailureEvent& b) { return a.time < b.time; });
}

Dataset Dataset::filter(const Filter& f) const {
  Dataset out;
  out.inventory_ = inventory_;
  out.system_mask_.assign(inventory_->systems.size(), 0);
  for (const auto& sys : inventory_->systems) {
    if (system_mask_[sys.id.value()] != 0 && f.matches(sys)) {
      out.system_mask_[sys.id.value()] = 1;
    }
  }
  out.events_.reserve(events_.size());
  for (const auto& e : events_) {
    if (out.system_mask_[e.system.value()] != 0) out.events_.push_back(e);
  }
  out.dropped_unknown_disk_ = dropped_unknown_disk_;
  return out;
}

std::size_t Dataset::event_count(model::FailureType type) const {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.type == type) ++n;
  }
  return n;
}

std::size_t Dataset::selected_system_count() const {
  std::size_t n = 0;
  for (const char m : system_mask_) n += static_cast<std::size_t>(m);
  return n;
}

std::size_t Dataset::selected_shelf_count() const {
  std::size_t n = 0;
  for (const auto& sh : inventory_->shelves) {
    if (system_mask_[sh.system.value()] != 0) ++n;
  }
  return n;
}

std::size_t Dataset::selected_raid_group_count() const {
  std::size_t n = 0;
  for (const auto& g : inventory_->raid_groups) {
    if (system_mask_[g.system.value()] != 0) ++n;
  }
  return n;
}

std::size_t Dataset::selected_disk_record_count() const {
  std::size_t n = 0;
  for (const auto& d : inventory_->disks) {
    if (system_mask_[d.system.value()] != 0) ++n;
  }
  return n;
}

double Dataset::disk_exposure_years() const {
  double total = 0.0;
  for (const auto& d : inventory_->disks) {
    if (system_mask_[d.system.value()] != 0) total += inventory_->disk_exposure_years(d);
  }
  return total;
}

double Dataset::raid_group_exposure_years() const {
  double total = 0.0;
  for (const auto& g : inventory_->raid_groups) {
    if (system_mask_[g.system.value()] == 0) continue;
    const auto& sys = inventory_->systems[g.system.value()];
    const double span = inventory_->horizon_seconds - sys.deploy_time;
    if (span > 0.0) total += model::years(span);
  }
  return total;
}

const log::InventoryDisk& Dataset::disk_of(const FailureEvent& event) const {
  return inventory_->disks[event.disk.value()];
}

const log::InventorySystem& Dataset::system_of(const FailureEvent& event) const {
  return inventory_->systems[disk_of(event).system.value()];
}

}  // namespace storsubsim::core
