// store::StoreParts — one read-only view over every store shape.
//
// A store is a sequence of parts, each a standalone STORCOL1 file with
// part-local dense ids: a shard directory (store/shards.h) has N parts, and
// a single-file store is the one-part case. The view is the one place that
// knows how part-local ids map to the ids a monolithic store of the whole
// fleet would carry (docs/STORE.md, "Global id rebasing"):
//
//   systems / shelves / RAID groups : part base + local
//   disk L <  initial (the part's initial disk count) : part disk base + L
//   disk L >= initial : fleet initial disks + part replacement base
//                       + (L - initial)
//
// so the monolithic disk order is every part's initial disks, part by part,
// then every part's replacement disks, part by part. A single file has zero
// bases and counts all of its disks as initial, so every id maps to itself.
//
// Ownership: the view borrows. The store or shard directory must outlive it;
// construction from temporaries is deleted. Shard parts open lazily on first
// access (part() throws std::runtime_error naming a corrupt shard; call
// open_all() first where a typed error must surface). Lazy opening is not
// synchronized — open every part before sharing a view across threads, or
// serialize opens and releases the way storsimd's serve::ShardLru does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "store/format.h"
#include "store/reader.h"
#include "store/shards.h"
#include "store/writer.h"

namespace storsubsim::store {

class StoreParts {
 public:
  // Implicit by design: anything taking a StoreParts accepts either owner.
  StoreParts(const EventStore& file) noexcept : file_(&file) {}      // NOLINT
  StoreParts(const ShardStore& shards) noexcept : shards_(&shards) {}  // NOLINT
  StoreParts(EventStore&&) = delete;
  StoreParts(ShardStore&&) = delete;

  std::size_t part_count() const noexcept {
    return file_ != nullptr ? 1 : shards_->shard_count();
  }

  /// Opens part i if it is not open yet; a shard failing validation yields
  /// a typed Error naming its file. Always ok for a single file.
  [[nodiscard]] Error ensure_open(std::size_t i) const {
    return file_ != nullptr ? Error{} : shards_->ensure_open(i);
  }
  /// ensure_open over every part, stopping at the first error.
  [[nodiscard]] Error open_all() const {
    return file_ != nullptr ? Error{} : shards_->open_all();
  }
  /// Part i, opened on first touch; throws std::runtime_error if a shard
  /// fails validation (for analysis paths with no Error channel).
  const EventStore& part(std::size_t i) const {
    return file_ != nullptr ? *file_ : shards_->shard_checked(i);
  }

  // --- mapping cache (serve::ShardLru drives these) -------------------------
  /// True while part i is mapped; a single file always is.
  bool is_open(std::size_t i) const noexcept {
    return file_ != nullptr || shards_->is_open(i);
  }
  /// Parts currently mapped.
  std::size_t open_count() const noexcept {
    return file_ != nullptr ? 1 : shards_->open_count();
  }
  /// Unmaps part i; a later ensure_open revalidates and remaps it. The caller
  /// guarantees no live views into the part. A single file is never
  /// released: its owner, not the view, closes it.
  void release(std::size_t i) const noexcept {
    if (shards_ != nullptr) shards_->release_shard(i);
  }

  // --- global id rebasing (see header comment) -----------------------------
  std::uint64_t global_system(std::size_t i, std::uint32_t local) const noexcept {
    return bases(i).system + local;
  }
  std::uint64_t global_shelf(std::size_t i, std::uint32_t local) const noexcept {
    return bases(i).shelf + local;
  }
  std::uint64_t global_raid_group(std::size_t i, std::uint32_t local) const noexcept {
    if (local == kInvalidId) return kInvalidId;
    return bases(i).raid_group + local;
  }
  std::uint64_t global_disk(std::size_t i, std::uint32_t local) const noexcept {
    const Bases b = bases(i);
    if (local < b.disks_initial) return b.disk + local;
    return b.fleet_disks_initial + b.replacement + (local - b.disks_initial);
  }

  /// Calls fn(part, begin, end) for each run of local disk rows, in the
  /// monolithic disk order: initial rows part by part, then replacement
  /// rows part by part. Empty runs are skipped. Needs no part open.
  template <typename Fn>
  void for_each_disk_run(Fn&& fn) const {
    for (const bool replacements : {false, true}) {
      for (std::size_t i = 0; i < part_count(); ++i) {
        const Bases b = bases(i);
        const std::uint64_t begin = replacements ? b.disks_initial : 0;
        const std::uint64_t end = replacements ? b.disks_total : b.disks_initial;
        if (begin < end) {
          fn(i, static_cast<std::size_t>(begin), static_cast<std::size_t>(end));
        }
      }
    }
  }

  // --- whole-fleet totals and merged tables --------------------------------
  /// Bit-identical to a monolithic store's footer (the MANIFEST's merged
  /// table for a shard directory).
  const ExposureTable& exposure() const noexcept {
    return file_ != nullptr ? file_->exposure() : shards_->manifest().exposure;
  }
  const StoreMeta& meta() const noexcept {
    return file_ != nullptr ? file_->meta() : shards_->manifest().meta;
  }
  double horizon_seconds() const noexcept {
    return file_ != nullptr ? file_->header().horizon_seconds
                            : shards_->manifest().horizon_seconds;
  }
  std::uint64_t event_count() const noexcept {
    return file_ != nullptr ? file_->event_count() : shards_->manifest().events;
  }
  /// Initial plus replacement disk records.
  std::uint64_t disk_count() const noexcept {
    return file_ != nullptr ? file_->header().disk_count : shards_->manifest().disks_total;
  }

 private:
  static constexpr std::uint32_t kInvalidId = 0xffffffffu;  ///< no RAID group

  /// Part i's MANIFEST id bases. A single file is one part with zero bases
  /// whose disks all count as initial, so every id maps to itself.
  struct Bases {
    std::uint64_t system = 0;
    std::uint64_t shelf = 0;
    std::uint64_t raid_group = 0;
    std::uint64_t disk = 0;         ///< global id of the part's first initial disk
    std::uint64_t replacement = 0;  ///< replacement records in earlier parts
    std::uint64_t disks_initial = 0;
    std::uint64_t disks_total = 0;
    std::uint64_t fleet_disks_initial = 0;  ///< initial disks over all parts
  };
  Bases bases(std::size_t i) const noexcept {
    if (file_ != nullptr) {
      const std::uint64_t disks = file_->header().disk_count;
      return Bases{0, 0, 0, 0, 0, disks, disks, disks};
    }
    const ShardInfo& s = shards_->info(i);
    return Bases{s.system_base, s.shelf_base,
                 s.raid_group_base, s.disk_base,
                 s.replacement_base, s.disks_initial,
                 s.disks_total, shards_->manifest().disks_initial};
  }

  // Exactly one is set.
  const EventStore* file_ = nullptr;
  const ShardStore* shards_ = nullptr;
};

/// What a path holds, judged by its magic bytes alone.
enum class StoreShape : std::uint8_t {
  kNotAStore,       ///< missing, unreadable, or neither magic
  kFile,            ///< a file beginning with STORCOL1
  kShardDirectory,  ///< a directory whose MANIFEST begins with STORSHARD1
};
[[nodiscard]] StoreShape sniff_store(const std::string& path);

/// The front door to every store: owns whichever store a path names and the
/// one view over it, so no caller branches on the store's shape. Non-movable,
/// like both owners: the view and every span it hands out point into it.
class StoreOwner {
 public:
  /// Sniffs `path` and opens it into the matching owner: a STORCOL1 file is
  /// mapped and fully validated; a shard directory's MANIFEST is checked and
  /// its parts open lazily (StoreParts::open_all validates them all). On
  /// failure the typed Error's detail names `path`: kIo for a missing path,
  /// kBadMagic for one holding neither shape, else the owner's own error.
  [[nodiscard]] Error open(const std::string& path);

  /// The view over what open() opened; call after it succeeded.
  StoreParts parts() const noexcept {
    return directory_ ? StoreParts(shards_) : StoreParts(file_);
  }
  /// The shard directory, or nullptr for a single file (for tools that
  /// print the MANIFEST itself, like `store stats`).
  const ShardStore* directory() const noexcept { return directory_ ? &shards_ : nullptr; }

 private:
  EventStore file_;
  ShardStore shards_;
  bool directory_ = false;
};

}  // namespace storsubsim::store
