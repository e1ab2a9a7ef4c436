// NetServer: the serve stack's real transport — a TCP and/or Unix-domain
// front end running one ServeSession per connection over the shared
// QueryEngine / UpdateBackend, with production traffic discipline.
//
// Architecture. One acceptor thread polls the listeners plus a drain
// self-pipe; each admitted connection gets a dedicated thread running the
// blocking read -> LineSplitter -> ServeSession -> send loop (sessions are
// long-lived blocking loops, so they must never run on the engine's
// sampling pool: a session blocks on its detect's fan-out over that pool).
// The protocol spoken over a socket is byte-identical to the stdin front:
// both feed the same ServeSession through the same splitter.
//
// Traffic discipline:
//   * Admission control. At most `max_connections` connections are live;
//     an over-cap client is accepted just long enough to receive a single
//     "err busy" line and a clean close — never a silent hang, never an
//     unbounded backlog. Because every admitted request runs synchronously
//     on its connection's thread, the cap also bounds the engine's
//     concurrent request load (the serve layer's backpressure valve).
//   * Line cap. Socket reads flow through the same capped LineSplitter as
//     stdin (kMaxRequestLineBytes): a hostile client streaming bytes
//     without a newline holds at most the cap in memory and earns one err.
//   * Timeouts. idle_timeout_ms bounds the quiet time between requests;
//     read_timeout_ms bounds the stall once a request line has started
//     (slow-loris); write_timeout_ms bounds a response send against an
//     unread socket. Each expiry counts a vulnds_net_timeouts_total{kind}
//     and closes the connection (idle/read get a best-effort err line).
//   * Graceful drain. BeginDrain() — or one byte written to drain_fd(),
//     which is async-signal-safe and what the SIGTERM handler does — stops
//     the acceptor, wakes every connection via the shared drain pipe,
//     lets requests already received run to completion with their
//     responses fully sent, then closes. Join() returns once every thread
//     is done; counters live in the engine's MetricRegistry so the final
//     scrape/stats flush sees them. The protocol's `shutdown` verb triggers
//     the same drain from any connected client.
//
// Metrics (registered at construction so the families are present from the
// first scrape): vulnds_net_connections{state=active|draining} gauges,
// vulnds_net_accepted_total, vulnds_net_rejected_total{reason},
// vulnds_net_timeouts_total{kind}, and a per-connection request-count
// histogram vulnds_net_requests_per_connection.

#ifndef VULNDS_NET_NET_SERVER_H_
#define VULNDS_NET_NET_SERVER_H_

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/socket.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "serve/session.h"
#include "serve/update_backend.h"

namespace vulnds::net {

struct NetServerOptions {
  /// TCP listener: port -1 disables, 0 binds an ephemeral port (read it
  /// back with tcp_port() after Start()).
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;
  /// Unix-domain listener: empty disables. A stale socket file is replaced
  /// at Start() and unlinked again when the server drains.
  std::string unix_path;

  /// Admission cap: live connections beyond this answer one "err busy" and
  /// are closed. Also the bound on concurrent in-flight requests.
  std::size_t max_connections = 64;

  int idle_timeout_ms = 300'000;  ///< max quiet time between requests
  int read_timeout_ms = 30'000;   ///< max stall inside a started line
  int write_timeout_ms = 10'000;  ///< budget for sending one response
  int listen_backlog = 128;
};

/// Point-in-time copy of the net layer's counters (source of truth is the
/// engine's MetricRegistry; this is the test/ops-friendly view).
struct NetStatsSnapshot {
  std::size_t accepted = 0;
  std::size_t rejected_busy = 0;
  std::size_t idle_timeouts = 0;
  std::size_t read_timeouts = 0;
  std::size_t write_timeouts = 0;
  std::size_t active = 0;    ///< connections currently open, not draining
  std::size_t draining = 0;  ///< connections finishing in-flight work
};

class NetServer {
 public:
  /// `updates` may be nullptr (update verbs answer errors). Metrics are
  /// registered in engine->registry().
  NetServer(serve::QueryEngine* engine, serve::UpdateBackend* updates,
            NetServerOptions options);

  /// Drains and joins; a destructed server has no live threads.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds the configured listeners and starts the acceptor thread. At
  /// least one transport must be configured.
  Status Start();

  /// The bound TCP port (after Start(); -1 when TCP is disabled).
  int tcp_port() const { return bound_tcp_port_; }

  /// Begins graceful drain: stop accepting, wake every connection, finish
  /// requests already received, close. Idempotent, callable from any
  /// thread (NOT from a signal handler — write to drain_fd() there).
  void BeginDrain();

  /// Write end of the drain self-pipe. Writing one byte triggers the same
  /// drain as BeginDrain() and is async-signal-safe — this is the fd a
  /// SIGTERM handler writes to (see InstallDrainOnSignal).
  int drain_fd() const { return drain_pipe_write_; }

  /// Blocks until the acceptor and every connection thread have finished.
  /// Without a prior drain this waits for clients to leave on their own;
  /// after BeginDrain() it completes promptly.
  void Join();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  NetStatsSnapshot stats() const;

  /// The shared per-server session counters (exported by the `metrics`
  /// and `stats` verbs of every session this server runs).
  const serve::ServerStats& server_stats() const { return server_stats_; }

 private:
  struct Conn {
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void RunConnection(Conn* conn);
  /// Accepts from one listener and either admits (spawns a connection
  /// thread) or rejects with "err busy".
  void HandleAccept(const Socket& listener);
  /// Joins and erases finished connections (acceptor housekeeping).
  void ReapFinishedConns();

  serve::QueryEngine* engine_;
  serve::UpdateBackend* updates_;
  NetServerOptions options_;

  Socket tcp_listener_;
  Socket unix_listener_;
  int bound_tcp_port_ = -1;

  // Drain self-pipe: the write end is the async-signal-safe trigger; the
  // read end is polled by the acceptor AND every connection, and is never
  // drained, so one written byte wakes every poller forever after.
  int drain_pipe_read_ = -1;
  int drain_pipe_write_ = -1;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};

  std::thread acceptor_;
  std::mutex conns_mu_;
  std::list<std::unique_ptr<Conn>> conns_;
  /// Live connections, counted at admission time in the acceptor so two
  /// racing accepts cannot both squeeze under the cap.
  std::atomic<std::size_t> live_conns_{0};

  serve::ServerStats server_stats_;

  // Registry-backed counters/gauges, resolved once at construction.
  obs::Counter* accepted_;
  obs::Counter* rejected_busy_;
  obs::Counter* idle_timeouts_;
  obs::Counter* read_timeouts_;
  obs::Counter* write_timeouts_;
  obs::Gauge* active_gauge_;
  obs::Gauge* draining_gauge_;
  obs::Histogram* requests_per_conn_;
};

/// Installs a `signum` (typically SIGTERM) handler that writes one byte to
/// `server`'s drain fd — the POSIX-correct graceful-stop hook: the handler
/// itself only calls write(2). One server per process can be registered;
/// installing for another server replaces the target. Call
/// ResetDrainSignal before the server is destroyed.
Status InstallDrainOnSignal(NetServer* server, int signum);

/// Restores the default disposition for `signum` and forgets the server.
void ResetDrainSignal(int signum);

}  // namespace vulnds::net

#endif  // VULNDS_NET_NET_SERVER_H_
