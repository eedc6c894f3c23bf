// storsimd: the long-lived query daemon behind `storsubsim serve`.
//
// One Daemon owns one read-only input, opened through store::StoreOwner —
// a monolithic STORCOL1 store or a STORSHARD1 shard directory, either way
// one store::StoreParts view — validated once at start(), and a unix-domain
// stream socket accepting any number of concurrent clients. One poll loop
// (serve()) owns every connection and feeds each length-prefixed frame
// (serve/protocol.h) to the daemon's util thread pool; no connection owns
// a thread. Requests are validated by core::AnalysisRequest::from_params
// and render through core/analysis_render.h, so every answer is
// byte-identical to the offline `storsubsim analyze` / `store query`
// output for the same input. Nothing after start() knows the input's
// shape: a ShardLru (--max-open-shards) pins the view's parts, a single
// file being one part that never leaves, and a query scans part by part
// through a ScanScratch on the stack, so the steady-state query path
// allocates nothing but the request and response strings.
//
// Shutdown is a drain: request_drain() (async-signal-safe — one byte down
// a self-pipe) stops the accept loop, lets in-flight requests finish, and
// serve() returns so the caller can flush manifests/traces. Connections
// idle at a frame boundary are closed; a connection mid-request completes
// that request first.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "replicate/replicate.h"
#include "serve/protocol.h"
#include "serve/shard_lru.h"
#include "store/parts.h"
#include "util/parallel.h"

namespace storsubsim::serve {

struct ServeOptions {
  std::string input;        ///< store file or shard directory
  std::string socket_path;  ///< unix socket to bind (replaced if stale)
  std::size_t max_open_shards = 0;  ///< LRU cap; 0 = keep all shards mapped
  unsigned threads = 0;             ///< pool size; 0 = util::thread_count()
  /// Optional STORREP1 replicate table (storsubsim replicate --out). When
  /// set, the replicate_summary endpoint serves its rendered summary and
  /// the stats endpoint carries its provenance counters.
  std::string replicates;
};

class Daemon {
 public:
  Daemon() = default;
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Opens and validates the input (every shard is validated up front, then
  /// the LRU trims to the cap), builds the thread pool, binds the socket.
  [[nodiscard]] store::Error start(const ServeOptions& options);

  /// Runs the poll loop: accepts connections and feeds their requests to
  /// the pool until request_drain(); returns once no request is in flight,
  /// every connection is closed and the socket unlinked — on a poll error
  /// too, which it then reports. Call after a successful start().
  [[nodiscard]] store::Error serve();

  /// Initiates a graceful drain. Async-signal-safe; callable from any
  /// thread or from a signal handler (directly or via drain_signal_fd()).
  void request_drain() noexcept;

  /// The byte a pool worker writes down the self-pipe to hand a connection
  /// back to the poll loop; reserved, never a drain request.
  static constexpr char kWakeByte = 'w';

  /// The write end of the drain self-pipe: a signal handler writing one
  /// byte here — any byte but kWakeByte — is equivalent to request_drain().
  int drain_signal_fd() const noexcept { return drain_write_fd_; }

  /// Non-null after a successful start() (test introspection).
  const ShardLru* lru() const noexcept { return lru_.get(); }

  /// Computes the response body for one request body (exposed for the
  /// in-process protocol tests; never throws).
  std::string handle_request(std::string_view body);

 private:
  struct Connection;

  void dispatch_buffered(Connection& conn);
  std::string dispatch(const Request& request);
  std::string run_statistic(core::StatisticId statistic, const Request& request);
  std::string run_store_query(const core::AnalysisRequest& analysis,
                              const std::string& endpoint);

  ServeOptions options_;
  store::StoreOwner input_;
  replicate::ReplicateSummary replicate_summary_;
  bool have_replicates_ = false;
  std::unique_ptr<ShardLru> lru_;
  std::unique_ptr<util::ThreadPool> pool_;

  int listen_fd_ = -1;
  int drain_read_fd_ = -1;
  int drain_write_fd_ = -1;
  std::atomic<bool> draining_{false};

  /// (fd, write_ok) of each connection a worker handed back to the loop.
  std::mutex finished_mutex_;
  std::vector<std::pair<int, bool>> finished_;
};

}  // namespace storsubsim::serve
