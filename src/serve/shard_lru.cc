#include "serve/shard_lru.h"

#include "obs/obs.h"

namespace storsubsim::serve {

ShardLru::ShardLru(store::StoreParts parts, std::size_t max_open)
    : parts_(parts),
      max_open_(max_open),
      pins_(parts.part_count(), 0),
      last_use_(parts.part_count(), 0) {}

store::Error ShardLru::pin(std::size_t i) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (store::Error err = parts_.ensure_open(i); !err.ok()) return err;
  ++pins_[i];
  last_use_[i] = ++tick_;
  evict_locked();
  return store::Error{};
}

void ShardLru::unpin(std::size_t i) noexcept {
  std::lock_guard<std::mutex> guard(mutex_);
  --pins_[i];
  // Parts at or under the cap stay warm for the next query; but an
  // analysis that pinned the whole directory over the budget must hand the
  // memory back as it releases, not hold it until the next pin.
  evict_locked();
}

store::Error ShardLru::pin_all() {
  for (std::size_t i = 0; i < pins_.size(); ++i) {
    if (store::Error err = pin(i); !err.ok()) {
      for (std::size_t j = 0; j < i; ++j) unpin(j);
      return err;
    }
  }
  return store::Error{};
}

void ShardLru::unpin_all() noexcept {
  for (std::size_t i = 0; i < pins_.size(); ++i) unpin(i);
}

std::uint64_t ShardLru::evictions() const noexcept {
  std::lock_guard<std::mutex> guard(mutex_);
  return evictions_;
}

std::size_t ShardLru::open_count() const noexcept {
  std::lock_guard<std::mutex> guard(mutex_);
  return parts_.open_count();
}

void ShardLru::evict_locked() {
  if (max_open_ == 0) return;
  STORSIM_OBS_COUNTER(c_evictions, "serve.shard_evictions",
                      ::storsubsim::obs::Stability::kSchedulingDependent);
  while (parts_.open_count() > max_open_) {
    // Oldest unpinned mapped part; pinned parts are immune, so with every
    // mapped part pinned there is nothing to evict and the cap yields.
    std::size_t victim = pins_.size();
    std::uint64_t oldest = 0;
    for (std::size_t i = 0; i < pins_.size(); ++i) {
      if (!parts_.is_open(i) || pins_[i] != 0) continue;
      if (victim == pins_.size() || last_use_[i] < oldest) {
        victim = i;
        oldest = last_use_[i];
      }
    }
    if (victim == pins_.size()) return;
    parts_.release(victim);
    ++evictions_;
    STORSIM_OBS_ADD(c_evictions, 1);
  }
}

}  // namespace storsubsim::serve
