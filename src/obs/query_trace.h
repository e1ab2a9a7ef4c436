// Per-query stage spans: a QueryTrace rides along a single Detect/Truth
// request and records wall-time per pipeline stage (bounds fixpoint,
// candidate reduction, sampling waves, cache insert) plus wave-level detail
// from the bottom-k runner. One trace belongs to one query; it is NOT
// thread-safe on its own, and the query's own thread is its only writer.
//
// The clock is injectable (ClockMicros) so tests and the serve protocol's
// time= token can be made deterministic; SteadyNowMicros() is the
// production default and matches common/timer.h's steady_clock basis.

#ifndef VULNDS_OBS_QUERY_TRACE_H_
#define VULNDS_OBS_QUERY_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace vulnds::obs {

/// Monotonic microsecond clock. Injectable everywhere a wall time is
/// recorded (traces, the serve time= token, update commits) so tests can
/// pin it; null means SteadyNowMicros.
using ClockMicros = std::function<int64_t()>;

/// steady_clock now, in microseconds since an arbitrary epoch.
int64_t SteadyNowMicros();

/// One completed pipeline stage.
struct StageSpan {
  std::string name;
  int64_t micros = 0;
};

/// Trace for one query. Stages are recorded in execution order via the
/// Begin/End pair (nested stages are not modeled — the detect pipeline is
/// sequential) or injected whole via AddStage.
class QueryTrace {
 public:
  QueryTrace() = default;
  explicit QueryTrace(ClockMicros clock) : clock_(std::move(clock)) {}

  /// Starts timing `name`. An unfinished previous stage is ended first so a
  /// forgotten EndStage cannot double-count time.
  void BeginStage(const std::string& name);

  /// Ends the stage opened by the last BeginStage. No-op when none is open.
  void EndStage();

  /// Appends a pre-measured stage (used when the caller already timed the
  /// work, e.g. the cache-hit fast path).
  void AddStage(const std::string& name, int64_t micros);

  const std::vector<StageSpan>& stages() const { return stages_; }

  /// Sum of all recorded stage micros.
  int64_t TotalMicros() const;

  int64_t Now() const;

  // Wave-level detail, filled by the bottom-k runner when this trace is
  // attached to a BSRBK run (zero otherwise).
  uint64_t waves_issued = 0;
  uint64_t worlds_wasted = 0;
  /// Sample index the run stopped at (== total planned samples when the
  /// early-stop rule never fired).
  uint64_t early_stop_position = 0;
  bool early_stopped = false;

 private:
  ClockMicros clock_;  // null -> SteadyNowMicros
  std::vector<StageSpan> stages_;
  bool open_ = false;
  int64_t open_start_ = 0;
};

}  // namespace vulnds::obs

#endif  // VULNDS_OBS_QUERY_TRACE_H_
