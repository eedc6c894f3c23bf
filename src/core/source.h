// core::Source — the unified input façade for the analysis API.
//
// The analysis layer historically forked into parallel overloads: one taking
// the in-memory Dataset (simulate -> emit -> parse -> classify), one taking
// the mmap'd columnar store::EventStore. Every new statistic had to be
// written twice. Source collapses the fork: it is a non-owning variant over
// the two backend shapes, implicitly constructible from any of them, so a
// single `compute_afr(const Source&)`-style entry point serves all — and the
// code paths are pinned bit-identical by the Source equivalence suite
// (tests/core/source_test.cc).
//
// The store shape is store::StoreParts (store/parts.h): a single-file store
// is one part, a sharded store directory (docs/STORE.md) is N parts. The
// view rebases each part's local ids to the monolithic ones, so every
// analysis has exactly two arms — Dataset and StoreParts — and results over
// a shard directory are byte-identical to the single-file store. Shards are
// faulted in lazily; wrap with open_all() first if a typed open error must
// be surfaced (the lazy path throws std::runtime_error on a corrupt shard).
//
// Ownership: Source borrows. The referenced backend must outlive the
// Source; construction from temporaries is deleted to make the obvious
// dangling pattern (wrapping the result of dataset.filter(...) and keeping
// it) a compile error. See docs/API.md.
#pragma once

#include <variant>

#include "core/dataset.h"
#include "store/parts.h"
#include "store/reader.h"
#include "store/shards.h"

namespace storsubsim::core {

class Source {
 public:
  // Implicit by design: call sites read compute_afr(dataset) and
  // compute_afr(store), not compute_afr(Source(dataset)).
  Source(const Dataset& dataset) noexcept : ref_(&dataset) {}  // NOLINT
  Source(store::StoreParts parts) noexcept : ref_(parts) {}    // NOLINT
  // An implicit argument conversion may take only one user-defined step, so
  // the two store owners convert to the parts view here.
  Source(const store::EventStore& file) noexcept  // NOLINT
      : ref_(store::StoreParts(file)) {}
  Source(const store::ShardStore& shards) noexcept  // NOLINT
      : ref_(store::StoreParts(shards)) {}
  Source(Dataset&&) = delete;
  Source(store::EventStore&&) = delete;
  Source(store::ShardStore&&) = delete;

  /// The dataset backend, or nullptr otherwise.
  const Dataset* dataset() const noexcept {
    const auto* const* d = std::get_if<const Dataset*>(&ref_);
    return d != nullptr ? *d : nullptr;
  }

  /// The store backend (a single file or a shard directory), or nullptr
  /// otherwise.
  const store::StoreParts* parts() const noexcept {
    return std::get_if<store::StoreParts>(&ref_);
  }

 private:
  std::variant<const Dataset*, store::StoreParts> ref_;
};

}  // namespace storsubsim::core
