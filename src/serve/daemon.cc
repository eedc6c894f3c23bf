#include "serve/daemon.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/analysis_render.h"
#include "core/analysis_request.h"
#include "core/source.h"
#include "obs/obs.h"
#include "replicate/table.h"

namespace storsubsim::serve {

namespace {

/// Seconds a frame may take to arrive whole, counted from when the loop
/// starts waiting for it; past that the peer gets `bad-frame` and is
/// closed. Also the send timeout that bounds a worker's write to a peer
/// that never reads.
constexpr long kReadTimeoutSeconds = 30;

[[nodiscard]] store::Error errno_error(std::string_view what) {
  std::string detail(what);
  detail.append(": ").append(std::strerror(errno));
  return store::make_error(store::ErrorCode::kIo, detail, 0);
}

/// Closes a connection, first answering it with a typed error when `code`
/// is set: non-blocking and best effort, so a peer that is not reading
/// loses the frame but never stalls the loop.
void close_connection(int& fd, std::string_view code = {}, std::string_view message = {}) {
  if (!code.empty()) {
    static_cast<void>(write_frame(fd, render_error_response(code, message), MSG_DONTWAIT));
  }
  ::close(fd);
  fd = -1;
}

/// Unpins every shard on scope exit, exception-safe (an analysis endpoint
/// must never leave pins behind).
struct PinAllGuard {
  ShardLru* lru;
  ~PinAllGuard() {
    if (lru != nullptr) lru->unpin_all();
  }
};

}  // namespace

/// One accepted connection, owned by the poll loop. While `busy`, a pool
/// worker holds it (answering one frame), so it is out of the poll set and
/// the loop neither reads from nor closes it.
struct Daemon::Connection {
  int fd = -1;
  std::string in;         ///< received bytes not yet dispatched
  double deadline = 0.0;  ///< when the partial frame in `in` is stale
  bool busy = false;
};

Daemon::~Daemon() {
  if (listen_fd_ >= 0) ::unlink(options_.socket_path.c_str());
  for (const int fd : {listen_fd_, drain_read_fd_, drain_write_fd_}) {
    if (fd >= 0) ::close(fd);
  }
}

store::Error Daemon::start(const ServeOptions& options) {
  options_ = options;

  if (store::Error err = input_.open(options.input); !err.ok()) return err;
  lru_ = std::make_unique<ShardLru>(input_.parts(), options.max_open_shards);
  // Validate every part up front — a corrupt shard must fail start(), not
  // some query hours later. The LRU evicts as it goes, so peak memory
  // during validation respects the cap.
  for (std::size_t i = 0; i < lru_->parts().part_count(); ++i) {
    if (store::Error err = lru_->pin(i); !err.ok()) return err;
    lru_->unpin(i);
  }

  if (!options.replicates.empty()) {
    if (store::Error err = replicate::read_table(options.replicates, &replicate_summary_);
        !err.ok()) {
      return err;
    }
    have_replicates_ = true;
    // Provenance onto the stats endpoint: which substream seeded the
    // replicates, how many ran, and why the run stopped. Deterministic —
    // they describe the loaded table, not request scheduling.
    obs::registry().counter("serve.replicate.replicates")
        .add(replicate_summary_.replicates);
    obs::registry().counter("serve.replicate.seed")
        .add(replicate_summary_.options.seed);
    std::string stream_counter("serve.replicate.seed_stream.");
    stream_counter.append(replicate::kSeedStream);
    obs::registry().counter(stream_counter).add(1);
    std::string reason_counter("serve.replicate.stop_reason.");
    reason_counter.append(replicate::to_string(replicate_summary_.stop_reason));
    obs::registry().counter(reason_counter).add(1);
  }

  pool_ = std::make_unique<util::ThreadPool>(
      options.threads != 0 ? options.threads : util::thread_count());

  // Non-blocking both ways: the loop empties the pipe without blocking, and
  // neither a signal handler nor a worker ever blocks writing to it.
  int pipe_fds[2] = {-1, -1};
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    return errno_error("cannot create drain pipe");
  }
  drain_read_fd_ = pipe_fds[0];
  drain_write_fd_ = pipe_fds[1];

  sockaddr_un addr{};
  if (options.socket_path.empty() ||
      options.socket_path.size() >= sizeof(addr.sun_path)) {
    std::string detail("socket path unusable (empty or too long): ");
    detail.append(options.socket_path);
    return store::make_error(store::ErrorCode::kBadValue, detail, 0);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return errno_error("cannot create socket");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  ::unlink(options.socket_path.c_str());  // replace a stale socket
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::string what("cannot bind ");
    what.append(options.socket_path);
    return errno_error(what);
  }
  if (::listen(listen_fd_, 128) != 0) return errno_error("cannot listen");
  return store::Error{};
}

store::Error Daemon::serve() {
  std::vector<Connection> conns;
  std::vector<pollfd> fds;
  std::vector<std::pair<int, bool>> finished;
  store::Error error;
  bool drain = false;
  char chunk[16384];
  for (;;) {
    // The poll set: the self-pipe, the listen socket until the drain (poll
    // skips a negative fd), and every connection no worker holds — fds[2 + i]
    // is conns[i]. The earliest partial-frame deadline bounds the wait.
    fds.assign({{drain_read_fd_, POLLIN, 0}, {listen_fd_, POLLIN, 0}});
    double earliest = std::numeric_limits<double>::infinity();
    for (const Connection& conn : conns) {
      fds.push_back({conn.busy ? -1 : conn.fd, POLLIN, 0});
      if (!conn.busy && !conn.in.empty()) earliest = std::min(earliest, conn.deadline);
    }
    // Rounded up, so the loop never wakes before the deadline; -1 waits forever.
    const double wait_ms = std::ceil((earliest - obs::now_seconds()) * 1e3);
    const int n = ::poll(fds.data(), fds.size(),
                         wait_ms > 1e9 ? -1 : static_cast<int>(std::max(wait_ms, 0.0)));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && error.ok()) error = errno_error("poll on the daemon's sockets");
    drain = drain || n < 0;
    const double now = obs::now_seconds();

    // Self-pipe: wake bytes announce finished requests, any other byte is a
    // drain. After a poll error it is read blindly, so in-flight requests
    // still come back.
    if (n < 0 || (fds[0].revents & POLLIN) != 0) {
      char bytes[64];
      ssize_t got = sizeof(bytes);
      while (got == sizeof(bytes) && (got = ::read(drain_read_fd_, bytes, sizeof(bytes))) > 0) {
        drain = drain || std::any_of(bytes, bytes + got, [](char b) { return b != kWakeByte; });
      }
      {
        const std::lock_guard<std::mutex> guard(finished_mutex_);
        finished.swap(finished_);
      }
      for (const auto& [fd, write_ok] : finished) {
        Connection& conn = *std::find_if(conns.begin(), conns.end(),
                                         [fd](const Connection& c) { return c.fd == fd; });
        // A frame that arrived meanwhile goes out now, without waiting for
        // another POLLIN; a partial one gets a fresh deadline.
        conn.busy = false;
        conn.deadline = now + kReadTimeoutSeconds;
        write_ok ? dispatch_buffered(conn) : close_connection(conn.fd);
      }
      finished.clear();
    }
    if (drain && listen_fd_ >= 0) {  // stop accepting first
      draining_.store(true);
      ::close(listen_fd_);
      listen_fd_ = -1;
      ::unlink(options_.socket_path.c_str());
    }

    // Every connection no worker holds: read what arrived and dispatch a
    // whole frame; then a partial frame that is stale, or any connection
    // during the drain, is answered or closed.
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Connection& conn = conns[i];
      if (!conn.busy && conn.fd >= 0 &&
          (fds[2 + i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (got > 0) {
          if (conn.in.empty()) conn.deadline = now + kReadTimeoutSeconds;
          conn.in.append(chunk, static_cast<std::size_t>(got));
          dispatch_buffered(conn);
        } else if (got == 0 && !conn.in.empty()) {
          close_connection(conn.fd, "bad-frame", "truncated frame");
        } else if (got == 0 || (errno != EAGAIN && errno != EINTR)) {
          close_connection(conn.fd);  // clean EOF on a frame boundary, or the peer is gone
        }
      }
      if (conn.busy || conn.fd < 0) continue;
      if (drain) {  // mid-frame, the peer is told why
        close_connection(conn.fd, conn.in.empty() ? "" : "draining", "daemon is draining");
      } else if (!conn.in.empty() && now >= conn.deadline) {
        close_connection(conn.fd, "bad-frame", "frame stalled past the read timeout");
      }
    }
    std::erase_if(conns, [](const Connection& c) { return c.fd < 0; });
    if (drain && conns.empty()) return error;

    if (listen_fd_ >= 0 && (fds[1].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {  // else EINTR / the peer vanished between poll and accept
        const timeval tv{kReadTimeoutSeconds, 0};
        (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        conns.push_back(Connection{fd, {}, 0.0, false});
      }
    }
  }
}

void Daemon::request_drain() noexcept {
  draining_.store(true);
  if (drain_write_fd_ >= 0) {
    const char byte = 'd';
    const ssize_t rc = ::write(drain_write_fd_, &byte, 1);
    static_cast<void>(rc);  // pipe full means the loop is already awake
  }
}

void Daemon::dispatch_buffered(Connection& conn) {
  std::uint32_t length = 0;
  const FrameStatus status = decode_frame(conn.in, &length);
  if (status == FrameStatus::kOversized) {
    // The body is never read, so the stream cannot be resynchronized.
    close_connection(conn.fd, "oversized", "frame length exceeds the 1 MiB cap");
  }
  if (status != FrameStatus::kOk) return;  // kTruncated: wait for more bytes
  std::string body = conn.in.substr(kFramePrefixBytes, length);
  conn.in.erase(0, kFramePrefixBytes + length);
  conn.busy = true;
  pool_->submit([this, fd = conn.fd, body = std::move(body)] {
    const bool write_ok = write_frame(fd, handle_request(body));  // never throws
    // Hand the connection back under the lock, so once the loop holds the
    // entry this worker is done with the daemon. Only the first entry of a
    // batch needs a wake byte, which keeps the pipe from filling.
    const std::lock_guard<std::mutex> guard(finished_mutex_);
    if (finished_.empty()) {
      const ssize_t rc = ::write(drain_write_fd_, &kWakeByte, 1);
      static_cast<void>(rc);  // full means the loop is awake anyway
    }
    finished_.emplace_back(fd, write_ok);
  });
}

std::string Daemon::handle_request(std::string_view body) {
  try {
    Request request;
    if (RequestError err = parse_request(body, &request); !err.ok()) {
      return render_error_response(err.code, err.message);
    }
    return dispatch(request);
  } catch (const std::exception& e) {
    return render_error_response("internal", e.what());
  } catch (...) {
    return render_error_response("internal", "unknown error");
  }
}

std::string Daemon::dispatch(const Request& request) {
  // Accept "/stats" as an alias so `storsubsim client --endpoint /stats`
  // reads naturally; the canonical name is "stats".
  const std::string endpoint =
      request.endpoint == "/stats" ? std::string("stats") : request.endpoint;
  // Every statistic is named by core::statistic_from_endpoint; only stats
  // and replicate_summary are the daemon's own.
  const auto statistic = core::statistic_from_endpoint(endpoint);
  if (!statistic.has_value() && endpoint != "stats" && endpoint != "replicate_summary") {
    std::string message("unknown endpoint '");
    message.append(request.endpoint).append("'");
    return render_error_response("unknown-endpoint", message);
  }
  if (!request.params.empty() && statistic != core::StatisticId::kQuery) {
    return render_error_response("bad-request",
                                 "params are only valid for the query endpoint");
  }
  if (draining_.load()) {
    return render_error_response("draining", "daemon is draining");
  }

  obs::Span span("serve.request");
  STORSIM_OBS_COUNTER(c_requests, "serve.requests",
                      ::storsubsim::obs::Stability::kSchedulingDependent);
  STORSIM_OBS_ADD(c_requests, 1);
  std::string counter_name("serve.endpoint.");
  counter_name.append(endpoint);
  obs::registry()
      .counter(counter_name, obs::Stability::kSchedulingDependent)
      .add(1);

  std::string response;
  if (statistic.has_value()) {
    response = run_statistic(*statistic, request);
  } else if (endpoint == "stats") {
    response = render_ok_response(endpoint, obs::registry().snapshot().to_text());
  } else if (!have_replicates_) {
    response = render_error_response("bad-request", "daemon was started without --replicates");
  } else {
    response = render_ok_response(
        endpoint, replicate::render_summary(replicate_summary_, request.csv));
  }

  const double seconds = span.stop();
  std::string hist_name("serve.latency_us.");
  hist_name.append(endpoint);
  obs::registry()
      .histogram(hist_name, obs::Stability::kSchedulingDependent)
      .observe(static_cast<std::uint64_t>(seconds * 1e6));
  return response;
}

std::string Daemon::run_statistic(core::StatisticId statistic, const Request& request) {
  // The typed request renders through core::render_statistic — the same
  // validator and entry point `storsubsim analyze` / `store query` use,
  // which is the byte-identity guarantee by construction.
  core::AnalysisRequest analysis;
  if (RequestError err = core::AnalysisRequest::from_params(statistic, request.params,
                                                            request.csv, &analysis);
      !err.ok()) {
    return render_error_response(err.code, err.message);
  }
  if (statistic == core::StatisticId::kQuery) {
    return run_store_query(analysis, request.endpoint);
  }
  // Whole-fleet analyses touch every part; pin them all so the analysis
  // code's lazy part access can never race an eviction.
  if (store::Error err = lru_->pin_all(); !err.ok()) {
    return render_error_response("store-error", err.describe());
  }
  PinAllGuard guard{lru_.get()};
  const core::Source source(lru_->parts());
  return render_ok_response(request.endpoint, core::render_statistic(source, analysis));
}

std::string Daemon::run_store_query(const core::AnalysisRequest& analysis,
                                    const std::string& endpoint) {
  // Part-at-a-time, pinned only while scanned: a query over a huge fleet
  // stays inside the --max-open-shards budget. The scratch is a fixed-size
  // arena on this pool thread's stack, as in store::run_query.
  const store::StoreParts& parts = lru_->parts();
  store::ScanScratch scratch;
  store::QueryRun run(analysis.query, &scratch);
  for (std::size_t i = 0; i < parts.part_count(); ++i) {
    if (store::Error err = lru_->pin(i); !err.ok()) {
      return render_error_response("store-error", err.describe());
    }
    run.scan(parts.part(i));
    lru_->unpin(i);
  }
  return render_ok_response(
      endpoint, core::render_query_result(run.finish(parts.exposure()), analysis.csv));
}

}  // namespace storsubsim::serve
