// Sharded store directories: the bounded-memory form of a store.
//
// A shard directory holds N standalone STORCOL1 files ("shard-0000.store",
// ...) plus a CRC-protected text MANIFEST. Each shard covers a contiguous
// global system range [sys_begin, sys_end) of the fleet and stores
// *chunk-local* dense ids (every shard is a valid store file on its own);
// the MANIFEST records the per-shard counts from which global id bases are
// derived, the merged exposure table (bit-identical to the footer a
// monolithic store of the whole fleet would carry), and the merged pipeline
// counters — so analyses over the directory reproduce the single-file
// answers byte for byte without ever materializing the whole fleet.
//
// Global id rebasing (docs/STORE.md) lives in store::StoreParts
// (store/parts.h), the one view over a shard directory and a single file.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "store/format.h"
#include "store/reader.h"
#include "store/writer.h"

namespace storsubsim::store {

inline constexpr std::string_view kManifestMagic = "STORSHARD1";
inline constexpr std::string_view kManifestFileName = "MANIFEST";
inline constexpr std::uint32_t kManifestVersion = 1;

/// One shard's MANIFEST entry. The count fields are written to disk; the
/// base fields are derived prefix sums, filled in by derive_shard_bases.
struct ShardInfo {
  std::string file;  ///< file name relative to the shard directory
  std::uint64_t file_size = 0;
  std::uint32_t header_crc = 0;  ///< crc32 of the shard's kHeaderSize-byte header
  std::uint64_t sys_begin = 0;   ///< global system range this shard covers
  std::uint64_t sys_end = 0;
  std::uint64_t systems = 0;
  std::uint64_t shelves = 0;
  std::uint64_t raid_groups = 0;
  std::uint64_t disks_initial = 0;  ///< initial disks (STORCOL1 stores only the total)
  std::uint64_t disks_total = 0;    ///< initial + replacement disk records
  std::uint64_t events = 0;

  // Derived global bases (prefix sums over preceding shards).
  std::uint64_t system_base = 0;
  std::uint64_t shelf_base = 0;
  std::uint64_t raid_group_base = 0;
  std::uint64_t disk_base = 0;         ///< global id of the first initial disk
  std::uint64_t replacement_base = 0;  ///< replacement records in earlier shards
};

/// The parsed MANIFEST: run provenance, fleet totals, merged pipeline
/// counters, the merged exposure table, and the shard list.
struct ShardManifest {
  std::uint32_t version = kManifestVersion;
  std::uint64_t seed = 0;
  double scale = 1.0;
  double horizon_seconds = 0.0;
  std::uint64_t systems = 0;
  std::uint64_t shelves = 0;
  std::uint64_t disks_initial = 0;
  std::uint64_t disks_total = 0;
  std::uint64_t raid_groups = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_rss_bytes = 0;  ///< of the build that produced the directory
  StoreMeta meta;                    ///< field-wise sum over shards
  ExposureTable exposure;            ///< merged; bit-identical to monolithic
  std::vector<ShardInfo> shards;
};

/// Renders the MANIFEST text, including the trailing CRC line. Doubles are
/// written as their u64 bit patterns in hex so the round trip is bit-exact.
std::string render_manifest(const ShardManifest& manifest);

/// Parses and CRC-checks a MANIFEST image, deriving the per-shard bases
/// and checking that the shards sum to the stated fleet totals. Truncated,
/// reordered or corrupted input yields a typed Error.
[[nodiscard]] Error parse_manifest(std::string_view text, ShardManifest* out);

/// Fills every shard's global id bases (prefix sums over the shards before
/// it) and sets the manifest's fleet totals (systems ... events) to the
/// shards' sums. Shard system ranges must tile the fleet in order.
[[nodiscard]] Error derive_shard_bases(ShardManifest* manifest);

/// Writes dir/MANIFEST (render_manifest + one-shot write).
[[nodiscard]] Error write_manifest_file(const std::string& dir, const ShardManifest& manifest);

/// Completes the MANIFEST of freshly written shards in `dir`: given the
/// shard entries' counts and the run provenance (seed, scale, horizon), it
/// fills each entry's file_size/header_crc, the bases and fleet totals
/// (derive_shard_bases), the summed meta counters, and the merged exposure
/// table. The table comes from one ExposureAccumulator fed in the disk order
/// of StoreParts::for_each_disk_run, so it is bit-identical to the footer of
/// a single-file store of the whole fleet. Each shard is fully validated and
/// at most one is mapped at a time.
[[nodiscard]] Error merge_shard_tables(const std::string& dir, ShardManifest* manifest);

/// An opened shard directory. open() validates the MANIFEST and cheaply
/// cross-checks every shard file (existence, size, header CRC and header
/// fields against the manifest entry); the expensive full-file validation
/// happens per shard on first access (lazy mmap) or all at once via
/// open_all().
class ShardStore {
 public:
  ShardStore() = default;

  // Shard EventStores pin mapped views; pin the owner too.
  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;
  ShardStore(ShardStore&&) = delete;
  ShardStore& operator=(ShardStore&&) = delete;

  /// Reads dir/MANIFEST and cross-checks the shard files. No shard is fully
  /// opened yet.
  [[nodiscard]] Error open(const std::string& dir);
  /// The same over an in-memory manifest whose bases are derived (the
  /// sharded build merges through this before the MANIFEST is written).
  [[nodiscard]] Error open(const std::string& dir, ShardManifest manifest);

  /// Opens and fully validates every shard now (analysis paths that will
  /// touch all shards anyway).
  [[nodiscard]] Error open_all() const;

  const std::string& directory() const noexcept { return dir_; }
  const ShardManifest& manifest() const noexcept { return manifest_; }
  std::size_t shard_count() const noexcept { return manifest_.shards.size(); }
  const ShardInfo& info(std::size_t i) const noexcept { return manifest_.shards[i]; }

  /// Fully opens shard i if it is not open yet. Const because lazy opening
  /// is a caching concern: the observable directory contents never change.
  /// A shard failing validation on first touch reports its path in the
  /// typed error, so a mid-analysis failure names the offending file.
  [[nodiscard]] Error ensure_open(std::size_t i) const;
  bool is_open(std::size_t i) const noexcept { return shards_[i] != nullptr; }
  /// Shards currently held open (mmap + validated).
  std::size_t open_count() const noexcept;

  /// Drops shard i's mapping (a later ensure_open revalidates and remaps).
  /// The caller must guarantee no live views into the shard — serve::ShardLru
  /// only releases shards whose pin count is zero.
  void release_shard(std::size_t i) const noexcept { shards_[i].reset(); }
  /// Requires a successful ensure_open(i) / open_all().
  const EventStore& shard(std::size_t i) const noexcept { return *shards_[i]; }
  /// Lazily opens and returns shard i, throwing std::runtime_error if the
  /// shard fails validation. For analysis paths whose signatures have no
  /// Error channel; prefer ensure_open + shard where an Error can surface.
  const EventStore& shard_checked(std::size_t i) const;

 private:
  std::string dir_;
  ShardManifest manifest_;
  // Lazy-open cache (see ensure_open); mutable so const readers can fault
  // shards in. Not synchronized — open shards before sharing across threads.
  mutable std::vector<std::unique_ptr<EventStore>> shards_;
};

}  // namespace storsubsim::store
