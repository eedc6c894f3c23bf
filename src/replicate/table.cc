#include "replicate/table.h"

#include <cstring>

#include "store/mmap_file.h"

namespace storsubsim::replicate {

namespace {

using store::append_f64;
using store::append_u16;
using store::append_u32;
using store::append_u64;
using store::append_u8;
using store::ErrorCode;
using store::make_error;
using store::read_u32;

constexpr std::size_t kMaxStatName = 256;  ///< sanity bound on decoded names

}  // namespace

std::string encode_table(const ReplicateSummary& summary) {
  std::string out;
  out.reserve(512 + summary.stats.size() * (64 + summary.replicates * 8));

  out.append(kTableMagic.data(), kTableMagic.size());
  append_u32(out, kTableVersion);
  append_u32(out, static_cast<std::uint32_t>(summary.stats.size()));
  append_u64(out, summary.options.seed);
  append_f64(out, summary.options.scale);
  append_f64(out, summary.options.confidence);
  append_f64(out, summary.options.ci_rel);
  append_u64(out, summary.options.max_replicates);
  append_u64(out, summary.options.min_replicates);
  append_u64(out, summary.options.batch);
  append_u64(out, summary.replicates);
  append_u8(out, static_cast<std::uint8_t>(summary.stop_reason));
  for (int i = 0; i < 7; ++i) append_u8(out, 0);

  for (const auto& stat : summary.stats) {
    append_u16(out, static_cast<std::uint16_t>(stat.name.size()));
    out.append(stat.name);
    append_u8(out, static_cast<std::uint8_t>(stat.family));
    append_u64(out, stat.stopped_at);
    append_f64(out, stat.mean);
    append_f64(out, stat.stddev);
    append_f64(out, stat.ci.lower);
    append_f64(out, stat.ci.upper);
    append_f64(out, stat.p025);
    append_f64(out, stat.p500);
    append_f64(out, stat.p975);
  }

  for (const auto& column : summary.values) {
    for (const double v : column) append_f64(out, v);
  }

  append_u32(out, store::crc32(out.data(), out.size()));
  return out;
}

store::Error decode_table(std::string_view bytes, ReplicateSummary* out) {
  if (bytes.size() < kTableMagic.size() + 4) {
    return make_error(ErrorCode::kTruncated, "replicate table shorter than its magic");
  }
  if (std::memcmp(bytes.data(), kTableMagic.data(), kTableMagic.size()) != 0) {
    return make_error(ErrorCode::kBadMagic, "not a STORREP1 replicate table");
  }
  if (bytes.size() < 4) {
    return make_error(ErrorCode::kTruncated, "replicate table missing trailing crc");
  }
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t want_crc = read_u32(bytes.data() + body);
  const std::uint32_t have_crc = store::crc32(bytes.data(), body);
  if (want_crc != have_crc) {
    return make_error(ErrorCode::kChecksum, "replicate table crc mismatch", body);
  }

  store::ByteCursor cur(bytes.data(), body);
  cur.take(kTableMagic.size());

  const std::uint32_t version = cur.u32();
  const std::uint32_t stat_count = cur.u32();
  if (!cur.ok()) {
    return make_error(ErrorCode::kTruncated, "replicate table header truncated",
                      cur.offset());
  }
  if (version != kTableVersion) {
    return make_error(ErrorCode::kBadVersion,
                      "replicate table version " + std::to_string(version));
  }

  ReplicateSummary summary;
  summary.options.seed = cur.u64();
  summary.options.scale = cur.f64();
  summary.options.confidence = cur.f64();
  summary.options.ci_rel = cur.f64();
  summary.options.max_replicates = cur.u64();
  summary.options.min_replicates = cur.u64();
  summary.options.batch = cur.u64();
  const std::uint64_t replicates = cur.u64();
  const std::uint8_t stop_reason = cur.u8();
  cur.take(7);
  if (!cur.ok()) {
    return make_error(ErrorCode::kTruncated, "replicate table header truncated",
                      cur.offset());
  }
  summary.replicates = replicates;
  if (stop_reason > static_cast<std::uint8_t>(StopReason::kConverged)) {
    return make_error(ErrorCode::kBadValue,
                      "unknown stop reason " + std::to_string(stop_reason));
  }
  summary.stop_reason = static_cast<StopReason>(stop_reason);

  for (std::uint32_t s = 0; s < stat_count; ++s) {
    StatSummary stat;
    const std::uint16_t name_len = cur.u16();
    if (!cur.ok()) {
      return make_error(ErrorCode::kTruncated, "statistic name truncated", cur.offset());
    }
    if (name_len == 0 || name_len > kMaxStatName) {
      return make_error(ErrorCode::kBadValue,
                        "statistic name length " + std::to_string(name_len), cur.offset());
    }
    const char* name = cur.take(name_len);
    const std::uint8_t family = cur.u8();
    stat.stopped_at = cur.u64();
    stat.mean = cur.f64();
    stat.stddev = cur.f64();
    stat.ci.lower = cur.f64();
    stat.ci.upper = cur.f64();
    stat.p025 = cur.f64();
    stat.p500 = cur.f64();
    stat.p975 = cur.f64();
    if (!cur.ok()) {
      return make_error(ErrorCode::kTruncated, "statistic record truncated", cur.offset());
    }
    stat.name.assign(name, name_len);
    bool known_family = false;
    for (const core::StatisticId id : core::kAllStatistics) {
      if (static_cast<std::uint8_t>(id) == family) known_family = true;
    }
    if (!known_family) {
      return make_error(ErrorCode::kBadValue,
                        "unknown statistic family " + std::to_string(family), cur.offset());
    }
    stat.family = static_cast<core::StatisticId>(family);
    stat.ci.point = stat.mean;
    summary.stats.push_back(std::move(stat));
  }

  // Check the matrix size without overflow: remaining() bounds the product.
  if (stat_count != 0 && replicates > cur.remaining() / 8 / stat_count) {
    return make_error(ErrorCode::kTruncated, "replicate values matrix size mismatch",
                      cur.offset());
  }
  if (cur.remaining() != static_cast<std::size_t>(stat_count) * replicates * 8) {
    return make_error(ErrorCode::kTruncated, "replicate values matrix size mismatch",
                      cur.offset());
  }
  summary.values.assign(stat_count, {});
  for (std::uint32_t s = 0; s < stat_count; ++s) {
    summary.values[s].resize(replicates);
    for (std::uint64_t r = 0; r < replicates; ++r) {
      summary.values[s][r] = cur.f64();
    }
  }

  *out = std::move(summary);
  return store::Error{};
}

store::Error write_table(const std::string& path, const ReplicateSummary& summary) {
  return store::write_file(path, encode_table(summary));
}

store::Error read_table(const std::string& path, ReplicateSummary* out) {
  std::string bytes;
  if (store::Error err = store::read_file(path, &bytes); !err.ok()) return err;
  return decode_table(bytes, out);
}

}  // namespace storsubsim::replicate
