// Decode-kernel throughput: how close the store scan path runs to memory
// bandwidth.
//
// Reads a store (--store, or the standard fleet at the configured scale built
// into a scratch file removed at exit), then measures the block-decode
// kernels (store/decode.h) in GB/s over that store's real columns:
//
//   * varint batch decode  — decode_varint_batch over the time columns;
//   * fused prefix-sum     — delta_zigzag_prefix over the decoded deltas;
//   * predicate bitmaps    — bitmap_eq_u8 / bitmap_eq4_u8 over the type
//                            column and bitmap_time_window over the decoded
//                            times, on the wide path and the scalar path;
//   * crc32                — slice-by-8 (format.cc) over the whole file
//                            image — the dominant cold-open cost;
//   * cold query           — end-to-end open + AFR breakdown + grouped
//                            query, wide vs scalar kernel path.
//
// The per-value varint and bytewise CRC references the kernels are checked
// against live in tests/store/decode_test.cc. The one output is the run
// manifest (default BENCH_decode.json); the kernel path rides in its info.
//
//   decode_bench [--scale=<f>] [--seed=<n>] [--repeat=<n>] [--store=<path>]
//                [--manifest=<path>] [--trace=<path>]
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "common.h"
#include "core/afr.h"
#include "store/decode.h"
#include "store/format.h"
#include "store/query.h"
#include "store/reader.h"

namespace {

using namespace storsubsim;

/// Min-of-`repeat` wall time of fn(), with enough inner iterations that one
/// sample processes at least ~256 MB (small columns would otherwise time in
/// the clock's noise floor).
template <typename Fn>
double time_kernel(int repeat, std::size_t bytes_per_iter, Fn&& fn) {
  std::size_t iters = 1;
  if (bytes_per_iter > 0 && bytes_per_iter < (std::size_t{256} << 20)) {
    iters = ((std::size_t{256} << 20) + bytes_per_iter - 1) / bytes_per_iter;
  }
  const auto best = bench::min_of_n(repeat, [&](int) {
    for (std::size_t i = 0; i < iters; ++i) fn();
  });
  return best.seconds / static_cast<double>(iters);
}

double gbps(std::size_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / seconds / 1e9 : 0.0;
}

/// One measured store column set: the four class shards' time columns (raw
/// varint bytes) plus decoded deltas/times and the type column.
struct ShardData {
  std::vector<std::string> varint_bytes;          // per shard
  std::vector<std::vector<std::uint64_t>> deltas; // per shard, decoded
  std::vector<std::vector<double>> times;         // per shard
  std::vector<std::vector<std::uint8_t>> types;   // per shard
  std::size_t varint_total = 0;
  std::size_t rows_total = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv, "BENCH_decode.json");
  const int repeat = options.repeat;
  const std::string store_path = bench::input_store(options, "decode");
  store::EventStore es;
  if (const auto err = es.open(store_path); !err.ok()) {
    std::cerr << "FAIL: cannot open store: " << err.describe() << "\n";
    return 1;
  }

  ShardData data;
  for (const auto cls : model::kAllSystemClasses) {
    const store::ColumnView* time_col = es.event_column(cls, store::ColumnId::kEventTime);
    const store::ColumnView* type_col = es.event_column(cls, store::ColumnId::kEventType);
    const auto rows = static_cast<std::size_t>(time_col->rows);
    data.varint_bytes.emplace_back(time_col->data, time_col->size);
    std::vector<std::uint64_t> deltas(rows);
    if (rows > 0 &&
        store::decode_varint_batch(time_col->data, time_col->data + time_col->size,
                                   deltas.data(), rows) == 0) {
      std::cerr << "FAIL: varint decode of a validated column\n";
      return 1;
    }
    data.deltas.push_back(std::move(deltas));
    const auto times = es.events(cls).time;
    data.times.emplace_back(times.begin(), times.end());
    const auto types = type_col->as_u8();
    data.types.emplace_back(types.begin(), types.end());
    data.varint_total += time_col->size;
    data.rows_total += rows;
  }
  const std::size_t f64_total = data.rows_total * sizeof(double);
  std::cout << "store " << store_path << ": " << data.rows_total << " events, "
            << data.varint_total << " time-column bytes, kernel path "
            << store::kernel_path_name() << "\n";

  std::vector<std::uint64_t> scratch(data.rows_total > 0 ? data.rows_total : 1);
  std::vector<double> out_times(data.rows_total > 0 ? data.rows_total : 1);
  const std::size_t max_rows =
      [&] {
        std::size_t m = 1;
        for (const auto& t : data.types) m = std::max(m, t.size());
        return m;
      }();
  std::vector<std::uint64_t> bm(store::bitmap_words(max_rows));
  std::vector<std::uint64_t> bm1(bm.size()), bm2(bm.size()), bm3(bm.size());
  std::uint64_t sink = 0;  // observable data dependency; reported at exit

  // --- varint decode ---------------------------------------------------------
  const double varint_batch_s = time_kernel(repeat, data.varint_total, [&] {
    for (std::size_t s = 0; s < data.varint_bytes.size(); ++s) {
      const auto& buf = data.varint_bytes[s];
      sink += store::decode_varint_batch(buf.data(), buf.data() + buf.size(),
                                         scratch.data(), data.deltas[s].size());
    }
  });

  // --- fused zigzag prefix-sum ----------------------------------------------
  const double prefix_s = time_kernel(repeat, f64_total, [&] {
    std::size_t base = 0;
    for (const auto& deltas : data.deltas) {
      std::uint64_t prev = 0;
      store::delta_zigzag_prefix(deltas.data(), deltas.size(), &prev,
                                 out_times.data() + base);
      base += deltas.size();
      sink += prev;
    }
  });

  // --- predicate bitmaps: wide path vs forced-scalar path --------------------
  auto measure_filters = [&](double* eq_s, double* eq4_s, double* window_s) {
    *eq_s = time_kernel(repeat, data.rows_total, [&] {
      for (const auto& types : data.types) {
        store::bitmap_eq_u8(types.data(), types.size(), 1, bm.data());
        sink += bm[0];
      }
    });
    const std::uint8_t values[4] = {0, 1, 2, 3};
    *eq4_s = time_kernel(repeat, data.rows_total, [&] {
      for (const auto& types : data.types) {
        store::bitmap_eq4_u8(types.data(), types.size(), values, bm.data(),
                             bm1.data(), bm2.data(), bm3.data());
        sink += bm[0] ^ bm1[0] ^ bm2[0] ^ bm3[0];
      }
    });
    *window_s = time_kernel(repeat, f64_total, [&] {
      for (const auto& times : data.times) {
        store::bitmap_time_window(times.data(), times.size(), true, 1e7, true, 9e7,
                                  bm.data());
        sink += bm[0];
      }
    });
  };
  double eq_wide_s = 0.0, eq4_wide_s = 0.0, window_wide_s = 0.0;
  double eq_scalar_s = 0.0, eq4_scalar_s = 0.0, window_scalar_s = 0.0;
  measure_filters(&eq_wide_s, &eq4_wide_s, &window_wide_s);
  store::set_simd_enabled(false);
  measure_filters(&eq_scalar_s, &eq4_scalar_s, &window_scalar_s);
  store::set_simd_enabled(true);

  // --- crc32: slice-by-8 over the whole file image --------------------------
  std::string image;
  {
    std::ifstream in(store_path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const double crc_s = time_kernel(repeat, image.size(), [&] {
    sink += store::crc32(image.data(), image.size());
  });

  // --- end-to-end cold query, wide vs scalar kernel path ---------------------
  auto cold_query = [&](bool simd) {
    store::set_simd_enabled(simd);
    const auto best = bench::min_of_n(repeat, [&](int) {
      store::EventStore cold;
      if (const auto err = cold.open(store_path); !err.ok()) {
        std::cerr << "FAIL: cold open: " << err.describe() << "\n";
        std::exit(1);
      }
      const auto breakdown = core::afr_by_class(core::Source(cold));
      store::Query query;
      query.group_by = store::Query::GroupBy::kSystemClass;
      const auto result = store::run_query(cold, query);
      sink += result.stats.rows_matched + breakdown.size();
    });
    store::set_simd_enabled(true);
    return best.seconds;
  };
  const double cold_wide_s = cold_query(true);
  const double cold_scalar_s = cold_query(false);
  // The checksum ties every timed kernel's output into an observable value,
  // so no measured loop can be optimized away.
  if (sink == 0xdeadbeefcafef00dull) std::cerr << "(improbable checksum)\n";

  const std::vector<std::pair<std::string, double>> numbers = {
      {"events", static_cast<double>(data.rows_total)},
      {"time_column_bytes", static_cast<double>(data.varint_total)},
      {"store_bytes", static_cast<double>(image.size())},
      {"simd_compiled", store::simd_compiled() ? 1.0 : 0.0},
      {"varint_batch_gbps", gbps(data.varint_total, varint_batch_s)},
      {"prefix_sum_gbps", gbps(f64_total, prefix_s)},
      {"bitmap_eq_gbps", gbps(data.rows_total, eq_wide_s)},
      {"bitmap_eq_scalar_gbps", gbps(data.rows_total, eq_scalar_s)},
      {"bitmap_eq4_gbps", gbps(data.rows_total, eq4_wide_s)},
      {"bitmap_eq4_scalar_gbps", gbps(data.rows_total, eq4_scalar_s)},
      {"time_window_gbps", gbps(f64_total, window_wide_s)},
      {"time_window_scalar_gbps", gbps(f64_total, window_scalar_s)},
      {"crc32_gbps", gbps(image.size(), crc_s)},
      {"cold_query_seconds", cold_wide_s},
      {"cold_query_scalar_seconds", cold_scalar_s},
  };
  std::cout << "varint batch " << gbps(data.varint_total, varint_batch_s) << " GB/s, crc32 "
            << gbps(image.size(), crc_s) << " GB/s\n"
            << "cold query " << cold_wide_s << " s wide, " << cold_scalar_s
            << " s scalar\n";

  bench::finish_run("bench/decode_bench", options, numbers,
                    {{"kernel_path", std::string(store::kernel_path_name())}});
  return 0;
}
