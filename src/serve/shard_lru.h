// Bounded cache of open store parts for the storsimd daemon.
//
// The lazy-open cache behind store::StoreParts is unsynchronized and
// unbounded — fine for the offline CLI (one thread, one pass), wrong for a
// daemon whose queries run concurrently and whose fleet may hold more
// shards than the mmap budget allows. ShardLru wraps the view with:
//
//  - pin/unpin reference counting: a query pins every part it scans for
//    the duration of the scan, so an eviction can never unmap memory a
//    reader is walking;
//  - LRU eviction over *unpinned* parts once more than `max_open` are
//    mapped (0 = unbounded). Pinned parts are never evicted, so the
//    mapped count can transiently exceed the cap when concurrent queries
//    pin more than `max_open` parts at once — the cap is a budget, not
//    a hard ceiling. Both pin and unpin trim back to the budget, so the
//    steady state (nothing pinned) never exceeds it, and re-opening
//    revalidates the part from scratch. A single-file store is one part
//    that is always open: one mapping never exceeds a cap of at least one,
//    so it is never evicted;
//  - a mutex making the underlying cache mutation thread-safe. The lock
//    is held only around open/release bookkeeping, never across a scan;
//    the release/acquire pairing on the mutex is what publishes a freshly
//    mapped part to the pinning thread.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "store/parts.h"

namespace storsubsim::serve {

class ShardLru {
 public:
  /// `parts`' owner must be open()ed already and outlive the cache.
  /// `max_open` of 0 means no cap (every part stays mapped once touched).
  ShardLru(store::StoreParts parts, std::size_t max_open);

  ShardLru(const ShardLru&) = delete;
  ShardLru& operator=(const ShardLru&) = delete;

  /// Maps + validates part i if needed and pins it. While pinned,
  /// parts().part(i) is safe to read from the calling thread. On error the
  /// part is not pinned and the typed error names the shard file.
  [[nodiscard]] store::Error pin(std::size_t i);

  /// Drops one pin; at zero pins the part becomes evictable (it stays
  /// mapped until the cap forces it out).
  void unpin(std::size_t i) noexcept;

  /// Pins every part (whole-fleet analysis endpoints). Already-pinned
  /// parts gain one more pin each; on error, pins taken so far are undone.
  [[nodiscard]] store::Error pin_all();
  void unpin_all() noexcept;

  /// The view whose parts this cache maps.
  const store::StoreParts& parts() const noexcept { return parts_; }
  /// Parts evicted so far (serve.shard_evictions mirrors this).
  std::uint64_t evictions() const noexcept;
  /// Currently mapped parts (pinned or cached).
  std::size_t open_count() const noexcept;

 private:
  /// Evicts least-recently-used unpinned parts until the cap holds.
  /// Caller holds mutex_.
  void evict_locked();

  const store::StoreParts parts_;
  std::size_t max_open_;
  mutable std::mutex mutex_;
  std::vector<std::uint32_t> pins_;      ///< per-part live pin count
  std::vector<std::uint64_t> last_use_;  ///< tick of most recent pin; 0 = never
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace storsubsim::serve
