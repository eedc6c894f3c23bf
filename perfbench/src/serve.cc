// Workload `serve`: an in-process storsimd (serve::Daemon) on a unix socket,
// serving a 4-shard directory of the full-scale fleet with every shard
// mapped, under a closed loop of `threads` serve::Client connections — the
// callers storsimd has, each waiting for its reply. Each client cycles
// through every report the daemon serves plus the light query mix, so the
// daemon's pool stays busy with warm reads through the ShardStore arm; the
// shards are opened and validated once, in set-up.
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/analysis_render.h"
#include "core/sharded_build.h"
#include "model/fleet_config.h"
#include "obs/obs.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "store/query.h"
#include "store/shards.h"

namespace perfbench {

namespace ss = storsubsim;

namespace {

/// Relative to the work directory the program runs in: unix socket paths
/// are limited to 107 bytes, and the checkout path may be longer.
constexpr const char* kSocket = "perfbench.sock";
constexpr std::size_t kShards = 4;
constexpr int kConnectProbes = 64;
constexpr int kHandleProbesPerRequest = 200;

/// The first kLightRequests requests are the light mix (grouped query,
/// whole-fleet AFR, windowed disk query), answered in well under a
/// millisecond; the rest are the daemon's report endpoints.
constexpr std::size_t kLightRequests = 3;

std::vector<ss::serve::Request> request_mix() {
  std::vector<ss::serve::Request> mix(kLightRequests);
  mix[0].endpoint = "query";
  mix[0].params.group_by = "class";
  mix[1].endpoint = "afr";
  mix[2].endpoint = "query";
  mix[2].params.type = "disk";
  mix[2].params.from_days = 30;
  mix[2].params.to_days = 365;
  for (const char* endpoint : {"afr_by_class", "tbf", "correlation", "lifetime"}) {
    mix.emplace_back();
    mix.back().endpoint = endpoint;
  }
  return mix;
}

/// The offline answer to each request over the same shard directory,
/// rendered as the complete response body the daemon must send.
std::vector<std::string> offline_responses(const std::string& dir,
                                           const std::vector<ss::serve::Request>& mix) {
  ss::store::ShardStore shards;
  if (const auto err = shards.open(dir); !err.ok()) {
    throw std::runtime_error("cannot open the corpus: " + err.describe());
  }
  if (const auto err = shards.open_all(); !err.ok()) {
    throw std::runtime_error("cannot open the corpus shards: " + err.describe());
  }
  std::vector<std::string> out;
  for (const auto& request : mix) {
    std::string table;
    if (request.endpoint == "afr") {
      table = ss::core::render_afr_total(shards, false);
    } else if (request.endpoint == "afr_by_class") {
      table = ss::core::render_afr_by_class(shards, false);
    } else if (request.endpoint == "tbf") {
      table = ss::core::render_tbf(shards, false);
    } else if (request.endpoint == "correlation") {
      table = ss::core::render_correlation(shards, false);
    } else if (request.endpoint == "lifetime") {
      table = ss::core::render_lifetime(shards, false);
    } else {
      ss::store::Query query;
      ss::store::QueryResult result;
      if (!ss::serve::make_query(request.params, &query).ok() ||
          !ss::store::run_query(shards, query, &result).ok()) {
        throw std::runtime_error("offline query failed");
      }
      table = ss::core::render_query_result(result, false);
    }
    out.push_back(ss::serve::render_ok_response(request.endpoint, table));
  }
  return out;
}

struct LoopStats {
  std::vector<double> cycles;  ///< wall seconds of each correct pass over the mix
  std::uint64_t requests = 0;  ///< requests answered correctly
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double window = 0.0;
  double cpu = 0.0;
};

/// One closed-loop phase: `clients` connections, each sending its next
/// request as soon as the previous reply arrived and passing over the whole
/// mix (client c starting at request c) until `seconds` have passed.
LoopStats closed_loop(unsigned clients, double seconds,
                      const std::vector<std::string>& bodies,
                      const std::vector<std::string>& expected) {
  std::vector<LoopStats> per_client(clients);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopStats& stats = per_client[c];
      ss::serve::Client client;
      bool connected = false;
      {
        Span span("serve.connect", "serve");
        connected = client.connect(kSocket).ok();
      }
      ready.fetch_add(1);
      if (!connected) {
        stats.attempted = stats.failed = 1;
        return;
      }
      while (!go.load()) std::this_thread::yield();
      std::string response;
      while (!stop.load(std::memory_order_relaxed)) {
        Span root("serve.op", "bench");
        const double t0 = now();
        bool cycle_ok = true;
        for (std::size_t r = 0; r < bodies.size(); ++r) {
          const std::size_t i = (r + c) % bodies.size();
          bool ok = false;
          if (i < kLightRequests) {
            Span span("serve.light_request", "serve");
            ok = client.call(bodies[i], &response).ok();
          } else {
            Span span("serve.report_request", "serve");
            ok = client.call(bodies[i], &response).ok();
          }
          ++stats.attempted;
          if (!ok) {  // the connection is closed after a transport error
            ++stats.failed;
            return;
          }
          if (response == expected[i]) {
            ++stats.requests;
          } else {
            ++stats.failed;
            cycle_ok = false;
          }
        }
        if (cycle_ok) stats.cycles.push_back(now() - t0);
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  LoopStats total;
  const double c0 = cpu_seconds();
  const double t0 = now();
  go.store(true);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  total.window = now() - t0;
  total.cpu = cpu_seconds() - c0;
  for (const auto& s : per_client) {
    total.cycles.insert(total.cycles.end(), s.cycles.begin(), s.cycles.end());
    total.requests += s.requests;
    total.attempted += s.attempted;
    total.failed += s.failed;
  }
  return total;
}

}  // namespace

double build_shards_corpus(const Options& opt) {
  const double t0 = now();
  ss::core::ShardedBuildOptions options;
  options.shards = kShards;
  const auto err = ss::core::build_sharded_store(
      shards_path(opt), ss::model::standard_fleet_config(opt.scale, opt.seed), options);
  if (!err.ok()) throw std::runtime_error("sharded build: " + err.describe());
  return now() - t0;
}

Result run_serve(const Options& opt) {
  Result result;
  const auto mix = request_mix();
  std::vector<std::string> bodies;
  for (const auto& request : mix) bodies.push_back(ss::serve::render_request(request));
  const auto expected = offline_responses(shards_path(opt), mix);

  ss::serve::ServeOptions serve_options;
  serve_options.input = shards_path(opt);
  serve_options.socket_path = kSocket;
  serve_options.max_open_shards = 0;
  serve_options.threads = opt.threads;

  // Set-up: start the daemon (open and validate every shard, build its
  // pool, bind); the last of the repeats stays up.
  std::vector<double> setups;
  std::unique_ptr<ss::serve::Daemon> daemon;
  for (int i = 0; i < kSetupRepeats; ++i) {
    daemon.reset();  // its destructor unlinks the socket path the next one binds
    daemon = std::make_unique<ss::serve::Daemon>();
    const double t0 = now();
    if (const auto err = daemon->start(serve_options); !err.ok()) {
      throw std::runtime_error("daemon start: " + err.describe());
    }
    setups.push_back(now() - t0);
  }
  std::thread serve_thread([&daemon] { static_cast<void>(daemon->serve()); });
  struct Drain {
    ss::serve::Daemon& daemon;
    std::thread& thread;
    ~Drain() {
      daemon.request_drain();
      thread.join();
    }
  } drain{*daemon, serve_thread};

  auto count = [&result](const LoopStats& loop) {
    result.attempted += loop.attempted;
    result.failed += loop.failed;
  };

  if (!opt.trace) {
    const LoopStats loop = closed_loop(opt.threads, opt.seconds, bodies, expected);
    count(loop);
    OpSamples ops;
    ops.wall = loop.cycles;
    ops.cpu = loop.cpu;
    ops.units = loop.requests;
    ops.window = loop.window;
    report_end_to_end(result, median(setups), ops);
    return result;
  }

  // Traced run: an untraced phase, then a shorter traced one (every request
  // records spans), then in-process probes of the light mix without the
  // socket.
  const LoopStats untraced = closed_loop(opt.threads, opt.seconds / 2, bodies, expected);
  count(untraced);
  ss::obs::registry().reset();
  ss::obs::reset_trace();
  set_tracing(true);
  const LoopStats traced =
      closed_loop(opt.threads, std::min(opt.seconds / 2, 4.0), bodies, expected);
  count(traced);
  const double pruned = static_cast<double>(obs_value("store.query.blocks_pruned"));
  const double scanned = static_cast<double>(obs_value("store.query.blocks_scanned"));
  const double tasks = static_cast<double>(obs_value("pool.tasks_submitted"));
  const double queue_depth = static_cast<double>(obs_value("pool.queue_depth_max"));

  for (int i = 0; i < kConnectProbes; ++i) {
    ss::serve::Client client;
    Span span("serve.connect", "serve");
    result.count(client.connect(kSocket).ok());
  }
  for (int r = 0; r < kHandleProbesPerRequest; ++r) {
    for (std::size_t i = 0; i < kLightRequests; ++i) {
      Span root("serve.handle_probe", "bench");
      std::string response;
      {
        Span span("serve.handle", "serve");
        response = daemon->handle_request(bodies[i]);
      }
      result.count(response == expected[i]);
    }
  }
  set_tracing(false);

  const auto spans = collected_spans();
  if (!write_chrome_trace(opt.dir + "/trace.json", spans, collected_obs_spans())) {
    throw std::runtime_error("cannot write the trace");
  }
  const double handle_us = median_self(spans, "serve.handle") * 1e6;
  result.metric("serve.handle_us", handle_us, "us");
  result.metric("serve.wire_us", median_self(spans, "serve.light_request") * 1e6 - handle_us,
                "us");
  result.metric("serve.connect_us", median_self(spans, "serve.connect") * 1e6, "us");
  result.metric("store.query.prune_frac",
                pruned + scanned > 0.0 ? pruned / (pruned + scanned) : 0.0, "ratio");
  result.metric("util.pool_tasks",
                traced.attempted == 0 ? 0.0 : tasks / static_cast<double>(traced.attempted),
                "count");
  result.metric("util.pool_queue_depth_max", queue_depth, "count");
  result.metric("untraced_frac", untraced_fraction(spans, "serve.op"), "ratio");
  result.metric("obs.trace_overhead_frac",
                median(traced.cycles) / median(untraced.cycles) - 1.0, "ratio");
  return result;
}

}  // namespace perfbench
