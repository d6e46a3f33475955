#include "serve/transport.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace qsnc::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPollTickMs = 50;

/// Poll wait for this iteration: the usual tick, clamped so a deadline
/// shorter than the tick is still honored (a hedge trigger of 2ms must
/// not sleep 50ms waiting for the primary).
int poll_wait_ms(Clock::time_point started, int64_t timeout_ms) {
  if (timeout_ms <= 0) return kPollTickMs;
  const int64_t remaining =
      timeout_ms - std::chrono::duration_cast<std::chrono::milliseconds>(
                       Clock::now() - started)
                       .count();
  if (remaining <= 0) return 0;
  return static_cast<int>(std::min<int64_t>(kPollTickMs, remaining));
}

sockaddr_un make_unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_tcp_address(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) == 1) {
    return addr;
  }
  // Not a dotted quad: resolve the name (e.g. "localhost").
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  if (::getaddrinfo(endpoint.host.c_str(), nullptr, &hints, &result) != 0 ||
      result == nullptr) {
    throw std::runtime_error("cannot resolve host '" + endpoint.host + "'");
  }
  addr.sin_addr =
      reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  ::freeaddrinfo(result);
  return addr;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

std::string Endpoint::str() const {
  if (kind == EndpointKind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint endpoint;
  if (spec.rfind("unix:", 0) == 0) {
    endpoint.kind = EndpointKind::kUnix;
    endpoint.path = spec.substr(5);
    if (endpoint.path.empty()) {
      throw std::invalid_argument("endpoint '" + spec + "': empty path");
    }
    return endpoint;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      throw std::invalid_argument("endpoint '" + spec +
                                  "': expected tcp:host:port");
    }
    endpoint.kind = EndpointKind::kTcp;
    endpoint.host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    size_t used = 0;
    unsigned long port = 0;
    try {
      port = std::stoul(port_str, &used);
    } catch (const std::exception&) {
      throw std::invalid_argument("endpoint '" + spec + "': bad port '" +
                                  port_str + "'");
    }
    if (used != port_str.size() || port > 65535) {
      throw std::invalid_argument("endpoint '" + spec + "': bad port '" +
                                  port_str + "'");
    }
    endpoint.port = static_cast<uint16_t>(port);
    return endpoint;
  }
  if (!spec.empty() && spec[0] == '/') {
    // Bare path: shorthand for unix:/path.
    endpoint.kind = EndpointKind::kUnix;
    endpoint.path = spec;
    return endpoint;
  }
  throw std::invalid_argument(
      "endpoint '" + spec +
      "': expected unix:/path, tcp:host:port, or an absolute path");
}

std::vector<Endpoint> parse_endpoint_list(const std::string& csv) {
  std::vector<Endpoint> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t end = csv.find(',', pos);
    if (end == std::string::npos) end = csv.size();
    out.push_back(parse_endpoint(csv.substr(pos, end - pos)));
    pos = end + 1;
  }
  if (out.empty()) {
    throw std::invalid_argument("empty endpoint list '" + csv + "'");
  }
  return out;
}

int listen_on(const Endpoint& endpoint, int backlog) {
  if (endpoint.kind == EndpointKind::kUnix) {
    const sockaddr_un addr = make_unix_address(endpoint.path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error(std::string("socket: ") +
                               std::strerror(errno));
    }
    ::unlink(endpoint.path.c_str());  // stale socket from a dead server
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, backlog) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      throw std::runtime_error("bind/listen on " + endpoint.str() + ": " +
                               err);
    }
    return fd;
  }
  const sockaddr_in addr = make_tcp_address(endpoint);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("bind/listen on " + endpoint.str() + ": " +
                             err);
  }
  return fd;
}

Endpoint local_endpoint(int listen_fd, const Endpoint& requested) {
  if (requested.kind == EndpointKind::kUnix) return requested;
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  Endpoint out = requested;
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    out.port = ntohs(addr.sin_port);
  }
  return out;
}

int connect_to(const Endpoint& endpoint) {
  if (endpoint.kind == EndpointKind::kUnix) {
    const sockaddr_un addr = make_unix_address(endpoint.path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error(std::string("socket: ") +
                               std::strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      throw std::runtime_error("connect to " + endpoint.str() + ": " + err);
    }
    return fd;
  }
  const sockaddr_in addr = make_tcp_address(endpoint);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") +
                             std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect to " + endpoint.str() + ": " + err);
  }
  set_nodelay(fd);
  return fd;
}

bool write_with_deadline(int fd, const std::vector<uint8_t>& bytes,
                         int64_t timeout_ms) {
  const Clock::time_point started = Clock::now();
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
        errno != EINTR) {
      return false;  // peer gone
    }
    if (timeout_ms > 0 &&
        Clock::now() - started >= std::chrono::milliseconds(timeout_ms)) {
      return false;
    }
    pollfd pfd{fd, POLLOUT, 0};
    ::poll(&pfd, 1, poll_wait_ms(started, timeout_ms));
    if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) return false;
  }
  return true;
}

std::optional<Frame> read_frame_with_deadline(int fd, FrameReader& reader,
                                              int64_t timeout_ms) {
  const Clock::time_point started = Clock::now();
  uint8_t buf[64 * 1024];
  for (;;) {
    if (auto frame = reader.next()) return frame;
    if (timeout_ms > 0 &&
        Clock::now() - started >= std::chrono::milliseconds(timeout_ms)) {
      return std::nullopt;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, poll_wait_ms(started, timeout_ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (ready == 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return std::nullopt;  // EOF
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return std::nullopt;
    }
    reader.feed(buf, static_cast<size_t>(n));
  }
}

}  // namespace qsnc::serve
