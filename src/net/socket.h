// Thin POSIX socket layer for the serve front end: owning fd wrapper,
// TCP / Unix-domain listeners and dialers, and deadline-bounded I/O.
//
// Everything here is transport plumbing with two hard rules:
//   * no call blocks past its deadline — sockets are switched to
//     non-blocking and every wait goes through poll(2) with a computed
//     remaining-time budget, so a stalled or hostile peer costs bounded
//     wall time, never a wedged thread;
//   * no call raises SIGPIPE — writes use send(MSG_NOSIGNAL), so a peer
//     closing mid-response surfaces as kClosed, not process death.
// Errors carry errno text in the Status message. The layer knows nothing
// about the serve protocol; framing lives in common/line_splitter.h and
// policy (caps, timeouts, drain) in net_server.h.

#ifndef VULNDS_NET_SOCKET_H_
#define VULNDS_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace vulnds::net {

/// Owning file-descriptor handle; move-only, closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
};

/// Binds and listens on TCP `host:port`. Port 0 binds an ephemeral port —
/// read the actual one back with TcpPort(). SO_REUSEADDR is set so a
/// restarted server does not trip over TIME_WAIT.
Result<Socket> ListenTcp(const std::string& host, int port, int backlog);

/// The locally bound TCP port of a listening/connected socket.
Result<int> TcpPort(const Socket& socket);

/// Binds and listens on a Unix-domain socket at `path`. A stale socket
/// file at the path is unlinked first (the caller owns the path's
/// namespace); the file is unlinked again by NetServer on drain.
Result<Socket> ListenUnix(const std::string& path, int backlog);

/// Blocking client connects (tests, benches, the CLI's own tooling).
Result<Socket> DialTcp(const std::string& host, int port);
Result<Socket> DialUnix(const std::string& path);

/// Accepts one pending connection from a listener; the returned socket is
/// already non-blocking, and TCP ones have TCP_NODELAY set so responses are
/// never held back by Nagle. Call only after poll reported the listener
/// readable; a racing client that vanished returns kClosed-like NotFound.
Result<Socket> Accept(const Socket& listener);

/// Marks `fd` non-blocking (listeners and accepted/dialed sockets).
Status SetNonBlocking(int fd);

/// Outcome of one deadline-bounded I/O call.
enum class IoStatus {
  kOk,       ///< made progress (RecvSome: >= 1 byte; SendAll: all bytes)
  kTimeout,  ///< deadline expired before the call could complete
  kClosed,   ///< peer closed (recv 0, EPIPE/ECONNRESET on send)
  kError,    ///< unexpected errno; connection should be dropped
};

/// Receives up to `cap` bytes, waiting at most `timeout_ms` for the first
/// byte. kOk sets *received >= 1; a peer shutdown is kClosed.
IoStatus RecvSome(int fd, char* buf, std::size_t cap, int timeout_ms,
                  std::size_t* received);

/// Sends the whole buffer, spending at most `timeout_ms` total across
/// short writes. Partial progress past the deadline is kTimeout — the
/// caller must treat the stream as poisoned either way.
IoStatus SendAll(int fd, const char* data, std::size_t size, int timeout_ms);

/// steady_clock now in milliseconds: the deadline arithmetic base shared
/// by this layer and the connection loops above it.
int64_t SteadyMillis();

}  // namespace vulnds::net

#endif  // VULNDS_NET_SOCKET_H_
