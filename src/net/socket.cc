#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>

#include "common/failpoint.h"

namespace vulnds::net {

namespace {

std::string ErrnoText(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

int64_t SteadyMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Waits for `events` on `fd` for at most `timeout_ms` (< 0 waits forever).
/// Returns poll's result with EINTR retried against the same deadline.
int PollOne(int fd, short events, int timeout_ms) {
  const int64_t deadline = timeout_ms < 0 ? -1 : SteadyMillis() + timeout_ms;
  for (;;) {
    int wait = -1;
    if (deadline >= 0) {
      const int64_t remaining = deadline - SteadyMillis();
      wait = remaining > 0 ? static_cast<int>(remaining) : 0;
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, wait);
    if (rc >= 0 || errno != EINTR) return rc;
  }
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(ErrnoText("fcntl(O_NONBLOCK)"));
  }
  return Status::OK();
}

Result<Socket> ListenTcp(const std::string& host, int port, int backlog) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("tcp port out of range: " +
                                   std::to_string(port));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad tcp host '" + host + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(ErrnoText("socket"));
  Socket sock(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError(ErrnoText(("bind " + host + ":" +
                                      std::to_string(port)).c_str()));
  }
  if (const Status st = SetNonBlocking(fd); !st.ok()) return st;
  if (::listen(fd, backlog) != 0) return Status::IOError(ErrnoText("listen"));
  return sock;
}

Result<int> TcpPort(const Socket& socket) {
  struct sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<struct sockaddr*>(&addr),
                    &len) != 0) {
    return Status::IOError(ErrnoText("getsockname"));
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Result<Socket> ListenUnix(const std::string& path, int backlog) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path empty or longer than " +
                                   std::to_string(sizeof(addr.sun_path) - 1) +
                                   " bytes: '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(ErrnoText("socket"));
  ::unlink(path.c_str());  // drop a stale socket file from a previous run
  Socket sock(fd);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError(ErrnoText(("bind " + path).c_str()));
  }
  if (const Status st = SetNonBlocking(fd); !st.ok()) return st;
  if (::listen(fd, backlog) != 0) return Status::IOError(ErrnoText("listen"));
  return sock;
}

Result<Socket> DialTcp(const std::string& host, int port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad tcp host '" + host + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(ErrnoText("socket"));
  Socket sock(fd);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError(ErrnoText(("connect " + host + ":" +
                                      std::to_string(port)).c_str()));
  }
  if (const Status st = SetNonBlocking(fd); !st.ok()) return st;
  return sock;
}

Result<Socket> DialUnix(const std::string& path) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path empty or too long: '" +
                                   path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(ErrnoText("socket"));
  Socket sock(fd);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError(ErrnoText(("connect " + path).c_str()));
  }
  if (const Status st = SetNonBlocking(fd); !st.ok()) return st;
  return sock;
}

Result<Socket> Accept(const Socket& listener) {
  for (;;) {
    struct sockaddr_storage peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd = ::accept(listener.fd(),
                            reinterpret_cast<struct sockaddr*>(&peer),
                            &peer_len);
    if (fd >= 0) {
      Socket sock(fd);
      if (const Status st = SetNonBlocking(fd); !st.ok()) return st;
      // Responses go out as soon as they are written: with Nagle on, the
      // second of two back-to-back responses to a pipelining client waits
      // for the client's delayed ACK (~40 ms). Unix-domain sockets have no
      // Nagle (the option fails there).
      if (peer.ss_family == AF_INET) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      return sock;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      // The pending client vanished between poll and accept.
      return Status::NotFound("no pending connection");
    }
    return Status::IOError(ErrnoText("accept"));
  }
}

IoStatus RecvSome(int fd, char* buf, std::size_t cap, int timeout_ms,
                  std::size_t* received) {
  *received = 0;
  const int rc = PollOne(fd, POLLIN, timeout_ms);
  if (rc == 0) return IoStatus::kTimeout;
  if (rc < 0) return IoStatus::kError;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, cap, 0);
    if (n > 0) {
      *received = static_cast<std::size_t>(n);
      return IoStatus::kOk;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    // POLLIN without data (spurious wakeup on a fresh event): report it as
    // a zero-progress timeout so the caller re-enters its deadline loop.
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kTimeout;
    if (errno == ECONNRESET) return IoStatus::kClosed;
    return IoStatus::kError;
  }
}

IoStatus SendAll(int fd, const char* data, std::size_t size, int timeout_ms) {
  // Injected send failure: the connection layer must drop the stream
  // exactly as it would on a real mid-response EIO (the response may be
  // partially delivered; the stream is poisoned either way).
  if (fail::Check(fail::points::kNetSendWrite) != fail::Outcome::kNone) {
    return IoStatus::kError;
  }
  const int64_t deadline = SteadyMillis() + timeout_ms;
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int64_t remaining = deadline - SteadyMillis();
      if (remaining <= 0) return IoStatus::kTimeout;
      const int rc = PollOne(fd, POLLOUT, static_cast<int>(remaining));
      if (rc == 0) return IoStatus::kTimeout;
      if (rc < 0) return IoStatus::kError;
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return IoStatus::kClosed;
    }
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

}  // namespace vulnds::net
