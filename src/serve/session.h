// ServeSession: one client's parse -> dispatch -> respond state machine,
// decoupled from any particular stream.
//
// The session owns its ServeLoopStats and holds references to the shared
// QueryEngine / UpdateBackend; it never owns a stream. Callers feed it one
// request line at a time (HandleLine) and hand it an ostream to write the
// response to, so the same object serves a blocking stdin loop
// (RunServeLoop in server.h), one socket connection (net/net_server.h), or
// a benchmark that times each request individually. Concurrent serving is
// many sessions on their own threads over one engine, sharing a ServerStats.
//
// Counter consistency story (the serve stack's single source of truth):
//   * ServeLoopStats is per-session and plain — exactly one session thread
//     ever touches it, and it is read only after the session finished.
//   * Everything else — ServerStats (shared across sessions), the engine,
//     result-cache and catalog counters — is a series of the catalog's
//     metric registry, counted in place with relaxed atomics. Each counter
//     is individually exact and never torn; a cross-counter read (the
//     `stats` verb, a `metrics` scrape) is a moment-in-time snapshot, not
//     a transaction, and both read the same series.

#ifndef VULNDS_SERVE_SESSION_H_
#define VULNDS_SERVE_SESSION_H_

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "serve/update_backend.h"

namespace vulnds::serve {

struct ServeRequest;  // protocol.h

/// Counters for one serve session.
struct ServeLoopStats {
  std::size_t requests = 0;  ///< non-blank lines processed
  std::size_t errors = 0;    ///< "err" responses emitted
  std::size_t updates = 0;   ///< accepted update verbs (incl. commits)
};

/// Server-level counters shared by every session of one front end: the
/// vulnds_server_*_total series of `registry`, resolved at construction.
/// Fronts over one registry share them.
struct ServerStats {
  explicit ServerStats(obs::MetricRegistry& registry);

  obs::Counter* const sessions_started;
  obs::Counter* const sessions_finished;
  obs::Counter* const requests;
  obs::Counter* const errors;
  obs::Counter* const updates;
};

/// Hard cap on one protocol line: a hostile client streaming bytes without a
/// newline costs at most this much memory, answers a single "err" response,
/// and the stream resynchronizes at the next newline.
inline constexpr std::size_t kMaxRequestLineBytes = 64 * 1024;

/// Outcome of reading one request line.
enum class ReadLineResult {
  kLine,       ///< *line holds a complete (possibly empty) request line
  kOversized,  ///< line exceeded max_bytes; discarded up to the next newline
  kEof,        ///< end of stream, nothing read
};

/// Reads one newline-terminated request line into *line, enforcing the byte
/// cap. A final unterminated line is returned as kLine (matching getline);
/// an oversized line is discarded through its terminating newline so the
/// next read starts on a fresh request.
ReadLineResult ReadRequestLine(std::istream& in, std::string* line,
                               std::size_t max_bytes = kMaxRequestLineBytes);

/// One serve session over a shared engine. Not thread-safe: a session
/// belongs to exactly one client/thread; concurrency comes from running
/// many sessions, never from sharing one.
class ServeSession {
 public:
  /// `updates` may be nullptr (update verbs answer errors); `server` may be
  /// nullptr (counters stay session-local).
  explicit ServeSession(QueryEngine* engine, UpdateBackend* updates = nullptr,
                        ServerStats* server = nullptr);

  /// Parses and executes one request line, writing the response to `out`.
  /// Returns false when the session is over (`quit`), true otherwise —
  /// including on malformed input, which answers a single "err" line.
  bool HandleLine(const std::string& line, std::ostream& out);

  /// Emits the error response for a line rejected by ReadRequestLine's
  /// byte cap (counts as one request and one error).
  void HandleOversizedLine(std::ostream& out);

  /// Installs the `shutdown` verb's action: the front end's graceful-drain
  /// trigger (NetServer::BeginDrain for sockets; a no-op for the stdin
  /// front, where ending the one session IS the drain). The session answers
  /// "ok draining", invokes the hook, and ends like `quit`. Without a hook
  /// the verb still drains whatever front drives the session, because the
  /// session ends.
  void set_drain_hook(std::function<void()> hook) {
    drain_hook_ = std::move(hook);
  }

  const ServeLoopStats& stats() const { return stats_; }

 private:
  void CountRequest();
  void CountUpdate();
  void Err(std::ostream& out, const std::string& message);

  /// The entry for `name`, resident or spilled (GetOrLoad pages a spilled
  /// snapshot back in). On failure writes the error — `absent` when the name
  /// is unknown — and returns nullptr.
  std::shared_ptr<CatalogEntry> ResolveGraph(const std::string& name,
                                             const std::string& absent,
                                             std::ostream& out);

  void HandleLoad(const ServeRequest& r, std::ostream& out);
  void HandleSave(const ServeRequest& r, std::ostream& out);
  void HandleDetect(const ServeRequest& r, std::ostream& out);
  void HandleTruth(const ServeRequest& r, std::ostream& out);
  void HandleStats(const ServeRequest& r, std::ostream& out);
  void HandleMetrics(std::ostream& out);
  void HandleCatalog(std::ostream& out);
  void HandleEvict(const ServeRequest& r, std::ostream& out);
  bool RequireUpdates(std::ostream& out);
  void HandleStageUpdate(const ServeRequest& r, std::ostream& out);
  void HandleCommit(const ServeRequest& r, std::ostream& out);
  void HandleVersions(const ServeRequest& r, std::ostream& out);

  /// Lazily resolves vulnds_server_request_micros{verb=...} for `command`
  /// and caches the handle, so the per-request observation after the first
  /// is one lock-free Observe — no registry mutex on the session hot path.
  obs::Histogram* VerbHistogram(int command);

  QueryEngine* engine_;
  UpdateBackend* updates_;
  ServerStats* server_;
  ServeLoopStats stats_;
  std::function<void()> drain_hook_;

  /// Cached histogram handles indexed by ServeCommand value (sized past
  /// kNone; unused slots stay null).
  static constexpr std::size_t kVerbSlots = 16;
  obs::Histogram* verb_micros_[kVerbSlots] = {};
};

}  // namespace vulnds::serve

#endif  // VULNDS_SERVE_SESSION_H_
