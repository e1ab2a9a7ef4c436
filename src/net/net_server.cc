#include "net/net_server.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "common/line_splitter.h"
#include "serve/io_metrics.h"

namespace vulnds::net {

namespace {

/// Request-per-connection count ladder: short scripted sessions land in the
/// low buckets, long-lived bench/ops sessions in the high ones.
const std::vector<double>& RequestsPerConnBuckets() {
  static const std::vector<double> kBuckets = {0,  1,   2,   5,    10,
                                               25, 100, 500, 2500, 10000};
  return kBuckets;
}

}  // namespace

NetServer::NetServer(serve::QueryEngine* engine, serve::UpdateBackend* updates,
                     NetServerOptions options)
    : engine_(engine),
      updates_(updates),
      options_(std::move(options)),
      server_stats_(*engine->registry()) {
  obs::MetricRegistry* reg = engine_->registry();
  accepted_ = reg->GetCounter("vulnds_net_accepted_total",
                              "Connections admitted by the socket front end");
  rejected_busy_ =
      reg->GetCounter("vulnds_net_rejected_total",
                      "Connections refused by the socket front end",
                      {{"reason", "busy"}});
  const std::string timeout_help =
      "Connections closed by a net-layer deadline";
  idle_timeouts_ = reg->GetCounter("vulnds_net_timeouts_total", timeout_help,
                                   {{"kind", "idle"}});
  read_timeouts_ = reg->GetCounter("vulnds_net_timeouts_total", timeout_help,
                                   {{"kind", "read"}});
  write_timeouts_ = reg->GetCounter("vulnds_net_timeouts_total", timeout_help,
                                    {{"kind", "write"}});
  const std::string conn_help = "Open socket connections by lifecycle state";
  active_gauge_ =
      reg->GetGauge("vulnds_net_connections", conn_help, {{"state", "active"}});
  draining_gauge_ = reg->GetGauge("vulnds_net_connections", conn_help,
                                  {{"state", "draining"}});
  requests_per_conn_ = reg->GetHistogram(
      "vulnds_net_requests_per_connection",
      "Requests served over one connection's lifetime",
      RequestsPerConnBuckets());
}

NetServer::~NetServer() {
  if (started_.load(std::memory_order_acquire)) {
    BeginDrain();
    Join();
  }
  if (drain_pipe_read_ >= 0) ::close(drain_pipe_read_);
  if (drain_pipe_write_ >= 0) ::close(drain_pipe_write_);
}

Status NetServer::Start() {
  if (options_.tcp_port < 0 && options_.unix_path.empty()) {
    return Status::InvalidArgument(
        "net server needs a transport: tcp port and/or unix path");
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::IOError("pipe: " + std::string(std::strerror(errno)));
  }
  drain_pipe_read_ = pipe_fds[0];
  drain_pipe_write_ = pipe_fds[1];
  // Non-blocking write end: the SIGTERM handler's write(2) must never block
  // even if the pipe is somehow full (any prior byte already woke everyone).
  (void)SetNonBlocking(drain_pipe_write_);

  if (options_.tcp_port >= 0) {
    Result<Socket> listener = ListenTcp(options_.tcp_host, options_.tcp_port,
                                        options_.listen_backlog);
    if (!listener.ok()) return listener.status();
    tcp_listener_ = listener.MoveValue();
    Result<int> port = TcpPort(tcp_listener_);
    if (!port.ok()) return port.status();
    bound_tcp_port_ = port.value();
  }
  if (!options_.unix_path.empty()) {
    Result<Socket> listener =
        ListenUnix(options_.unix_path, options_.listen_backlog);
    if (!listener.ok()) return listener.status();
    unix_listener_ = listener.MoveValue();
  }

  started_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void NetServer::BeginDrain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  if (drain_pipe_write_ >= 0) {
    const char byte = 'd';
    // The byte is the wakeup; the atomic above is the state. A full pipe
    // (impossible with one byte, but cheap to tolerate) is fine to ignore.
    (void)!::write(drain_pipe_write_, &byte, 1);
  }
}

void NetServer::Join() {
  if (acceptor_.joinable()) acceptor_.join();
  // After the acceptor exits nothing mutates conns_ concurrently, but take
  // the lock anyway so TSan sees the handoff.
  std::list<std::unique_ptr<Conn>> remaining;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    remaining.swap(conns_);
  }
  for (auto& conn : remaining) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

NetStatsSnapshot NetServer::stats() const {
  NetStatsSnapshot snapshot;
  snapshot.accepted = accepted_->Value();
  snapshot.rejected_busy = rejected_busy_->Value();
  snapshot.idle_timeouts = idle_timeouts_->Value();
  snapshot.read_timeouts = read_timeouts_->Value();
  snapshot.write_timeouts = write_timeouts_->Value();
  snapshot.active = static_cast<std::size_t>(active_gauge_->Value());
  snapshot.draining = static_cast<std::size_t>(draining_gauge_->Value());
  return snapshot;
}

void NetServer::AcceptLoop() {
  for (;;) {
    std::vector<struct pollfd> pfds;
    pfds.push_back({drain_pipe_read_, POLLIN, 0});
    if (tcp_listener_.valid()) pfds.push_back({tcp_listener_.fd(), POLLIN, 0});
    if (unix_listener_.valid()) {
      pfds.push_back({unix_listener_.fd(), POLLIN, 0});
    }
    // Wake periodically even with no traffic so finished connections are
    // reaped promptly rather than accumulating until the next accept.
    const int rc = ::poll(pfds.data(), pfds.size(), 1000);
    if (rc < 0 && errno != EINTR) break;
    if (draining_.load(std::memory_order_acquire) ||
        (pfds[0].revents & POLLIN) != 0) {
      // The pipe byte may have come straight from a signal handler, which
      // cannot touch the atomic itself — publish the state here.
      BeginDrain();
      break;
    }
    if (rc > 0) {
      for (std::size_t i = 1; i < pfds.size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        const Socket& listener =
            pfds[i].fd == tcp_listener_.fd() ? tcp_listener_ : unix_listener_;
        HandleAccept(listener);
      }
    }
    ReapFinishedConns();
  }
  // Drain: stop accepting immediately. Closing the listeners makes new
  // connects fail fast instead of queueing in a dead backlog.
  tcp_listener_.Close();
  unix_listener_.Close();
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  // Connections saw the same pipe byte; wait for them here so Join() only
  // has stragglers to collect.
  for (;;) {
    ReapFinishedConns();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void NetServer::HandleAccept(const Socket& listener) {
  // Accept everything the poll reported; with a non-blocking listener the
  // loop ends on NotFound (EAGAIN).
  for (;;) {
    Result<Socket> accepted = Accept(listener);
    if (!accepted.ok()) return;
    Socket socket = accepted.MoveValue();
    const std::size_t live = live_conns_.load(std::memory_order_acquire);
    if (live >= options_.max_connections) {
      rejected_busy_->Increment();
      static constexpr char kBusy[] = "err busy\n";
      (void)SendAll(socket.fd(), kBusy, sizeof(kBusy) - 1,
                    options_.write_timeout_ms);
      // Half-close so the err line is delivered before the FIN even if the
      // client already sent a request we will never read.
      ::shutdown(socket.fd(), SHUT_WR);
      continue;  // Socket destructor closes
    }
    live_conns_.fetch_add(1, std::memory_order_acq_rel);
    accepted_->Increment();
    active_gauge_->Add(1);
    auto conn = std::make_unique<Conn>();
    conn->socket = std::move(socket);
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { RunConnection(raw); });
  }
}

void NetServer::ReapFinishedConns() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetServer::RunConnection(Conn* conn) {
  const int fd = conn->socket.fd();
  server_stats_.sessions_started->Increment();
  serve::ServeSession session(engine_, updates_, &server_stats_);
  session.set_drain_hook([this] { BeginDrain(); });
  LineSplitter splitter(serve::kMaxRequestLineBytes);

  std::size_t requests = 0;
  bool counted_draining = false;  // gauge state: active -> draining
  int64_t last_byte_ms = SteadyMillis();
  int64_t last_request_ms = last_byte_ms;
  bool open = true;

  // Sends one response within the write budget; false poisons the stream.
  auto send_response = [&](const std::string& text) {
    const IoStatus st =
        SendAll(fd, text.data(), text.size(), options_.write_timeout_ms);
    if (st == IoStatus::kTimeout) write_timeouts_->Increment();
    if (st == IoStatus::kError) {
      // A hard send failure (real or injected) drops only this connection;
      // the session's committed state is untouched.
      serve::CountIoError(engine_->registry(), "net_send", "error");
    }
    return st == IoStatus::kOk;
  };
  // Runs every complete line the splitter holds. Returns false when the
  // connection should close (quit/shutdown, or a failed send).
  auto pump_events = [&] {
    std::string line;
    for (;;) {
      const LineSplitter::Event event = splitter.Next(&line);
      if (event == LineSplitter::Event::kNone) return true;
      std::ostringstream out;
      bool keep_going = true;
      if (event == LineSplitter::Event::kOversized) {
        session.HandleOversizedLine(out);
      } else {
        keep_going = session.HandleLine(line, out);
        ++requests;
        last_request_ms = SteadyMillis();
      }
      const std::string response = out.str();
      if (!response.empty() && !send_response(response)) return false;
      if (!keep_going) return false;
    }
  };

  while (open) {
    if (!pump_events()) break;
    if (draining_.load(std::memory_order_acquire)) {
      if (!counted_draining) {
        counted_draining = true;
        active_gauge_->Add(-1);
        draining_gauge_->Add(1);
      }
      // One zero-wait sweep picks up requests the kernel had already
      // received when the drain fired; they count as in-flight and are
      // answered. Anything arriving after the sweep is the client's loss.
      char buf[4096];
      std::size_t received = 0;
      for (int sweep = 0; sweep < 64; ++sweep) {  // bounded: drain must end
        if (RecvSome(fd, buf, sizeof(buf), 0, &received) != IoStatus::kOk) {
          break;
        }
        splitter.Feed(buf, received);
      }
      (void)pump_events();
      break;
    }

    // Two deadlines, one armed at a time: mid-line we are waiting for the
    // rest of a started request (read timeout, the slow-loris bound);
    // between requests we are waiting for the client to want something
    // (idle timeout).
    const bool mid_line = splitter.mid_line();
    const int64_t now = SteadyMillis();
    const int64_t budget = mid_line ? options_.read_timeout_ms
                                    : options_.idle_timeout_ms;
    const int64_t anchor = mid_line ? last_byte_ms : last_request_ms;
    const int64_t remaining = anchor + budget - now;
    if (remaining <= 0) {
      if (mid_line) {
        read_timeouts_->Increment();
        (void)send_response("err read timeout, closing\n");
      } else {
        idle_timeouts_->Increment();
        (void)send_response("err idle timeout, closing\n");
      }
      break;
    }

    struct pollfd pfds[2] = {{fd, POLLIN, 0}, {drain_pipe_read_, POLLIN, 0}};
    const int rc = ::poll(pfds, 2, static_cast<int>(remaining));
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;  // deadline re-checked at loop top
    if ((pfds[1].revents & POLLIN) != 0) {
      // Signal-handler path: the byte precedes the atomic; publish it so
      // the loop top (after pumping any data read below) drains.
      BeginDrain();
    }
    if ((pfds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      char buf[4096];
      std::size_t received = 0;
      const IoStatus st = RecvSome(fd, buf, sizeof(buf), 0, &received);
      switch (st) {
        case IoStatus::kOk:
          splitter.Feed(buf, received);
          last_byte_ms = SteadyMillis();
          break;
        case IoStatus::kTimeout:
          break;  // spurious readiness; deadlines re-arm at loop top
        case IoStatus::kClosed: {
          // Peer EOF. Complete lines were already pumped at the loop top,
          // so only a final unterminated line can remain; it still deserves
          // an answer (getline parity with the stdin front), best-effort.
          std::string line;
          const LineSplitter::Event tail = splitter.Finish(&line);
          if (tail != LineSplitter::Event::kNone) {
            std::ostringstream out;
            if (tail == LineSplitter::Event::kOversized) {
              session.HandleOversizedLine(out);
            } else {
              session.HandleLine(line, out);
              ++requests;
            }
            if (!out.str().empty()) (void)send_response(out.str());
          }
          open = false;
          break;
        }
        case IoStatus::kError:
          open = false;
          break;
      }
    }
  }

  ::shutdown(fd, SHUT_WR);
  requests_per_conn_->Observe(static_cast<double>(requests));
  // Free the admission slot before any observer can see the connection as
  // closed, so a client that saw it close is never refused for its slot.
  live_conns_.fetch_sub(1, std::memory_order_acq_rel);
  if (counted_draining) {
    draining_gauge_->Add(-1);
  } else {
    active_gauge_->Add(-1);
  }
  server_stats_.sessions_finished->Increment();
  conn->done.store(true, std::memory_order_release);
}

namespace {

// One drain target per process: the handler may only call async-signal-safe
// functions, so it writes a byte to the registered fd and nothing else.
std::atomic<int> g_drain_signal_fd{-1};

extern "C" void DrainSignalHandler(int /*signum*/) {
  const int fd = g_drain_signal_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    (void)!::write(fd, &byte, 1);
  }
}

}  // namespace

Status InstallDrainOnSignal(NetServer* server, int signum) {
  g_drain_signal_fd.store(server->drain_fd(), std::memory_order_relaxed);
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = DrainSignalHandler;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  if (::sigaction(signum, &action, nullptr) != 0) {
    return Status::IOError("sigaction: " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

void ResetDrainSignal(int signum) {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = SIG_DFL;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(signum, &action, nullptr);
  g_drain_signal_fd.store(-1, std::memory_order_relaxed);
}

}  // namespace vulnds::net
