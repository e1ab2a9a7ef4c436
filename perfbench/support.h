// Shared plumbing of the benchmark binary: options, results, spans, input
// snapshots, the served child process and its line-protocol client.

#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen/datasets.h"

namespace perfbench {

/// Graphs are Table 2 stand-ins at scale 1.0 from one fixed generator seed,
/// like the paper's fixed datasets; --seed drives every request stream,
/// detect seed and update round instead.
inline constexpr uint64_t kDatasetSeed = 42;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;       ///< path of the vulnds_cli binary to serve with
  std::string work_dir;  ///< working space inside the checkout
  std::string source_digest;
};

/// Monotonic wall clock in seconds / nanoseconds.
double NowSeconds();
int64_t NowNanos();

/// Calls fn() and returns its result, storing its wall time in *ns.
template <typename Fn>
auto TimedCall(double* ns, Fn&& fn) {
  const int64_t t0 = NowNanos();
  auto result = fn();
  *ns = static_cast<double>(NowNanos() - t0);
  return result;
}

/// Linearly interpolated p-th percentile, p in [0, 100]; 0 for no samples.
double Percentile(std::vector<double> sample, double p);
inline double Median(std::vector<double> sample) {
  return Percentile(std::move(sample), 50.0);
}

/// What one run reports: the final JSON line plus guard/oracle verdicts.
class Outcome {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed guard or oracle check; the run is then not correct.
  void Fail(const std::string& why);
  /// Prints a guard's measured value and whether it held.
  void Guard(const std::string& name, double value, bool held);
  void Count(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return correct_; }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// In-memory spans written out when the run ends. A span's self time is
/// its duration minus the part of it its child spans cover.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;  ///< index into spans(), -1 for an op's root
    uint64_t op;
  };
  int Begin(const char* name, uint64_t op, int parent = -1);
  void End(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time in nanoseconds of every span.
  std::vector<double> SelfTimesNs() const;
  /// Self times grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimesByName() const;
  /// Durations grouped by span name.
  std::map<std::string, std::vector<double>> DurationsByName() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction (or End()).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op, int parent = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, op, parent) : -1) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void End() {
    if (tracer_ != nullptr && id_ >= 0) tracer_->End(id_);
    id_ = -1;
  }
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Path of dataset `id`'s binary snapshot, generating it on first use.
/// Generation is input preparation and is never inside a timed region.
std::string EnsureSnapshot(const Options& options, vulnds::DatasetId id);

/// Creates `path` (and parents); false on failure.
bool MakeDirs(const std::string& path);
/// Removes a directory tree (best effort).
void RemoveTree(const std::string& path);

/// A `vulnds_cli serve tcp=0 ...` child process.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server and waits for its "listening tcp=HOST:PORT" line.
  bool Start(const std::string& cli, const std::vector<std::string>& args,
             const std::string& log_path);
  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// SIGTERM (graceful drain), then waits; SIGKILL after a grace period.
  void Stop();

 private:
  pid_t pid_ = -1;
  int port_ = -1;
  int stdout_fd_ = -1;  ///< read end of the child's stdout pipe
};

/// Blocking client of the line protocol over one TCP connection.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(int port);
  /// Sends `line` and reads one whole response: a single line, or an
  /// "ok" header plus rows up to the "." terminator for block verbs.
  /// False on an I/O error.
  bool Request(const std::string& line, std::string* response);
  void Close();

 private:
  bool ReadLine(std::string* line);
  int fd_ = -1;
  std::string buffer_;
  std::size_t pos_ = 0;
};

/// "key=value" tokens of a `stats` block, numeric values only. Tokens of
/// the "serve requests=... hits=..." line are prefixed "serve.".
std::map<std::string, double> ParseStats(const std::string& block);
/// Scrapes `stats` and `metrics` into one map ("metrics." prefix for the
/// latter); false on an I/O or protocol error.
bool Scrape(LineClient& client, std::map<std::string, double>* out);
/// after[key] - before[key] (missing keys read 0).
double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& key);

/// The numeric value of `key=` in a response header line (or -1).
double HeaderValue(const std::string& response, const std::string& key);

/// CPUs this process may run on (nproc).
std::size_t AvailableCpus();
/// Their ids, ascending.
std::vector<int> AllowedCpus();
/// Restricts the calling thread to `cpus`; false on failure.
bool PinThread(const std::vector<int>& cpus);
/// VmHWM in MiB of process `pid`, or of this process when pid is 0
/// (0 when unreadable).
double PeakRssMb(pid_t pid);

/// Prints the provenance line every result carries.
void PrintProvenance(const Options& options, const std::string& simd_tier);

/// Rows of a detect response (everything after the header), the ranking.
std::string RankingRows(const std::string& response);

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
