// Tests for the Monte Carlo replication engine: the determinism contract
// (bit-identical summaries and tables at any thread count), CI correctness
// against the closed-form t interval, deterministic sequential stopping, and
// the STORREP1 round-trip with typed corruption errors.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "replicate/replicate.h"
#include "replicate/table.h"
#include "stats/special_functions.h"
#include "util/parallel.h"

namespace replicate = storsubsim::replicate;
namespace stats = storsubsim::stats;
namespace store = storsubsim::store;
namespace util = storsubsim::util;

namespace {

replicate::ReplicateOptions fast_options() {
  replicate::ReplicateOptions options;
  options.scale = 0.02;
  options.seed = 99;
  options.max_replicates = 12;
  options.min_replicates = 4;
  options.batch = 4;
  return options;
}

replicate::ReplicateSummary run_at_threads(const replicate::ReplicateOptions& options,
                                           unsigned threads) {
  util::set_thread_count(threads);
  auto summary = replicate::run_replication(options);
  util::set_thread_count(0);  // restore auto
  return summary;
}

}  // namespace

TEST(Replication, HeadlineStatisticListIsTheTableContract) {
  // The list is part of the STORREP1 contract: a run carries every headline
  // statistic, in this fixed order, starting with the total AFR.
  const std::vector<std::string> names = {
      "afr.total",
      "afr.disk",
      "afr.interconnect",
      "afr.protocol",
      "afr.performance",
      "tbf.shelf.within_1e4",
      "tbf.raid.within_1e4",
      "corr.shelf.disk.p1",
      "corr.shelf.disk.p2",
      "corr.shelf.disk.factor",
      "corr.raid.disk.factor",
      "lifetime.survival_1y",
      "lifetime.censored_fraction"};
  const auto summary = run_at_threads(fast_options(), 1);
  ASSERT_EQ(summary.stats.size(), names.size());
  ASSERT_EQ(summary.values.size(), names.size());
  for (std::size_t s = 0; s < names.size(); ++s) {
    EXPECT_EQ(summary.stats[s].name, names[s]);
    EXPECT_EQ(summary.values[s].size(), summary.replicates);
  }
}

TEST(Replication, CiMatchesClosedFormTInterval) {
  const auto summary = run_at_threads(fast_options(), 1);
  ASSERT_EQ(summary.replicates, 12u);
  const double n = static_cast<double>(summary.replicates);
  const double t = stats::student_t_quantile(0.975, n - 1.0);
  for (std::size_t s = 0; s < summary.stats.size(); ++s) {
    const auto& stat = summary.stats[s];
    // Recompute mean and sample stddev from the raw values matrix.
    double sum = 0.0;
    for (const double v : summary.values[s]) sum += v;
    const double mean = sum / n;
    double ss = 0.0;
    for (const double v : summary.values[s]) ss += (v - mean) * (v - mean);
    const double stddev = std::sqrt(ss / (n - 1.0));
    EXPECT_NEAR(stat.mean, mean, 1e-12 * (1.0 + std::fabs(mean))) << stat.name;
    EXPECT_NEAR(stat.stddev, stddev, 1e-9 * (1.0 + stddev)) << stat.name;
    // The CI is the textbook t interval: mean +/- t * s / sqrt(n).
    const double hw = t * stddev / std::sqrt(n);
    EXPECT_NEAR(stat.ci.lower, mean - hw, 1e-9 * (1.0 + std::fabs(mean))) << stat.name;
    EXPECT_NEAR(stat.ci.upper, mean + hw, 1e-9 * (1.0 + std::fabs(mean))) << stat.name;
    EXPECT_NEAR(stat.ci.half_width(), hw, 1e-9 * (1.0 + hw)) << stat.name;
    // Percentiles bracket the median sensibly.
    EXPECT_LE(stat.p025, stat.p500) << stat.name;
    EXPECT_LE(stat.p500, stat.p975) << stat.name;
  }
}

TEST(Replication, ThreadInvariantByteIdenticalTables) {
  const auto options = fast_options();
  const auto t1 = run_at_threads(options, 1);
  const auto t4 = run_at_threads(options, 4);
  const auto t8 = run_at_threads(options, 8);
  // The determinism contract: replicate seeds are keyed substreams of the
  // root seed, never of scheduling — so the serialized table and the
  // rendered report are byte-identical at any thread count.
  const std::string bytes1 = replicate::encode_table(t1);
  EXPECT_EQ(bytes1, replicate::encode_table(t4));
  EXPECT_EQ(bytes1, replicate::encode_table(t8));
  EXPECT_EQ(replicate::render_summary(t1, false), replicate::render_summary(t8, false));
  EXPECT_EQ(replicate::render_summary(t1, true), replicate::render_summary(t8, true));
}

TEST(Replication, SequentialStoppingIsDeterministicAcrossThreadCounts) {
  auto options = fast_options();
  options.ci_rel = 0.5;  // loose target: converges before the budget
  options.max_replicates = 24;
  const auto t1 = run_at_threads(options, 1);
  const auto t4 = run_at_threads(options, 4);
  EXPECT_EQ(t1.stop_reason, replicate::StopReason::kConverged);
  EXPECT_LT(t1.replicates, options.max_replicates)
      << "sequential stopping must beat the fixed-N budget at this target";
  EXPECT_GE(t1.replicates, options.min_replicates);
  // Stopping decisions happen only at batch boundaries on the in-order
  // prefix, so the early-stop point is thread-invariant too.
  EXPECT_EQ(t1.replicates, t4.replicates);
  EXPECT_EQ(replicate::encode_table(t1), replicate::encode_table(t4));
  for (std::size_t s = 0; s < t1.stats.size(); ++s) {
    EXPECT_EQ(t1.stats[s].stopped_at, t4.stats[s].stopped_at) << t1.stats[s].name;
    EXPECT_GT(t1.stats[s].stopped_at, 0u) << t1.stats[s].name;
  }
}

TEST(Replication, CiRelZeroRunsTheFullBudget) {
  const auto summary = run_at_threads(fast_options(), 2);
  EXPECT_EQ(summary.stop_reason, replicate::StopReason::kMaxReplicates);
  EXPECT_EQ(summary.replicates, fast_options().max_replicates);
}

TEST(ReplicateTable, RoundTripsThroughStorrep1) {
  const auto summary = run_at_threads(fast_options(), 2);
  const std::string bytes = replicate::encode_table(summary);
  replicate::ReplicateSummary decoded;
  const store::Error err = replicate::decode_table(bytes, &decoded);
  ASSERT_TRUE(err.ok()) << err.describe();
  EXPECT_EQ(replicate::encode_table(decoded), bytes)
      << "decode must be the exact inverse of encode";
  EXPECT_EQ(decoded.replicates, summary.replicates);
  EXPECT_EQ(decoded.stop_reason, summary.stop_reason);
  EXPECT_EQ(decoded.options.seed, summary.options.seed);
  ASSERT_EQ(decoded.stats.size(), summary.stats.size());
  for (std::size_t s = 0; s < summary.stats.size(); ++s) {
    EXPECT_EQ(decoded.stats[s].name, summary.stats[s].name);
    EXPECT_EQ(decoded.stats[s].mean, summary.stats[s].mean);  // exact bit pattern
    EXPECT_EQ(decoded.values[s], summary.values[s]);
  }
}

TEST(ReplicateTable, CorruptionComesBackAsTypedErrors) {
  const auto summary = run_at_threads(fast_options(), 2);
  const std::string bytes = replicate::encode_table(summary);
  replicate::ReplicateSummary out;

  // Truncation at every prefix length must fail closed, never crash.
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, std::size_t{32},
                          bytes.size() / 2, bytes.size() - 1}) {
    const store::Error err = replicate::decode_table(bytes.substr(0, len), &out);
    EXPECT_FALSE(err.ok()) << "prefix length " << len;
  }

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_EQ(replicate::decode_table(bad_magic, &out).code, store::ErrorCode::kBadMagic);

  // The trailing CRC is checked before any field, so a bare version flip
  // reads as kChecksum; to reach the version check the CRC must be re-sealed.
  std::string bad_version = bytes;
  bad_version[8] = char(0x7f);  // u32 version follows the 8-byte magic
  bad_version.resize(bad_version.size() - 4);
  store::append_u32(bad_version, store::crc32(bad_version.data(), bad_version.size()));
  const store::Error version_err = replicate::decode_table(bad_version, &out);
  EXPECT_EQ(version_err.code, store::ErrorCode::kBadVersion);

  // A flipped payload byte must trip the trailing CRC.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= char(0x40);
  const store::Error crc_err = replicate::decode_table(flipped, &out);
  EXPECT_EQ(crc_err.code, store::ErrorCode::kChecksum);
}

// The statistic count is untrusted even under a valid CRC: a table claiming
// ~4 billion statistics must fail closed with a typed Error (the records
// after the real ones do not parse), not size anything by the claim.
TEST(ReplicateTable, HugeStatCountWithValidCrcIsTyped) {
  const auto summary = run_at_threads(fast_options(), 2);
  std::string bytes = replicate::encode_table(summary);
  bytes.resize(bytes.size() - 4);  // drop the crc, patch, re-seal
  // stat_count is the little-endian u32 after the magic (8) and version (4).
  bytes.replace(12, 4, std::string("\xF0\xFF\xFF\xFF", 4));
  store::append_u32(bytes, store::crc32(bytes.data(), bytes.size()));

  replicate::ReplicateSummary out;
  EXPECT_FALSE(replicate::decode_table(bytes, &out).ok());
}

TEST(ReplicateRender, CarriesProvenanceAndStops) {
  const auto summary = run_at_threads(fast_options(), 1);
  const std::string table = replicate::render_summary(summary, false);
  for (const char* token : {"seed stream", "replicate", "stop reason", "max-replicates",
                            "afr.total", "lifetime.survival_1y"}) {
    EXPECT_NE(table.find(token), std::string::npos) << token;
  }
  const std::string csv = replicate::render_summary(summary, true);
  EXPECT_NE(csv, table);
  EXPECT_NE(csv.find("afr.total"), std::string::npos);
}
