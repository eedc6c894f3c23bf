#include "serve/client.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace storsubsim::serve {

namespace {

[[nodiscard]] store::Error errno_error(std::string_view what) {
  std::string detail(what);
  detail.append(": ").append(std::strerror(errno));
  return store::make_error(store::ErrorCode::kIo, detail, 0);
}

}  // namespace

store::Error Client::connect(const std::string& socket_path) {
  close();
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    std::string detail("socket path unusable (empty or too long): ");
    detail.append(socket_path);
    return store::make_error(store::ErrorCode::kBadValue, detail, 0);
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) return errno_error("cannot create socket");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::string what("cannot connect to ");
    what.append(socket_path);
    store::Error err = errno_error(what);
    close();
    return err;
  }
  return store::Error{};
}

void Client::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

store::Error Client::call(std::string_view request_body, std::string* response_body) {
  if (fd_ < 0) {
    return store::make_error(store::ErrorCode::kIo, "client is not connected", 0);
  }
  if (!write_frame(fd_, request_body)) {
    close();
    return errno_error("cannot write request frame");
  }
  const FrameStatus status = read_frame(fd_, response_body);
  if (status == FrameStatus::kOk) return store::Error{};
  close();
  if (status == FrameStatus::kClosed) {
    return store::make_error(store::ErrorCode::kIo, "daemon closed the connection", 0);
  }
  if (status == FrameStatus::kOversized) {
    return store::make_error(store::ErrorCode::kBadValue, "oversized response frame", 0);
  }
  return store::make_error(store::ErrorCode::kTruncated, "truncated response frame", 0);
}

store::Error Client::request(const Request& request, Response* response) {
  std::string body;
  if (store::Error err = call(render_request(request), &body); !err.ok()) {
    return err;
  }
  if (!parse_response(body, response)) {
    close();
    return store::make_error(store::ErrorCode::kBadValue,
                             "malformed response body", 0);
  }
  return store::Error{};
}

}  // namespace storsubsim::serve
