// Metric registry for the serving stack: named counters, gauges and
// fixed-bucket histograms with Prometheus text exposition.
//
// Design contract, mirroring production metric layers (one registry, many
// feeding subsystems):
//   * The hot path is lock-free: Counter::Increment, Gauge::Set and
//     Histogram::Observe are relaxed atomics — no mutex is ever taken while
//     recording a measurement, so instrumenting the serve engine's cached
//     hit path costs a handful of atomic adds.
//   * Registration (Get*) is mutex-guarded get-or-create keyed by
//     (name, labels): callers resolve their handles once (construction or
//     first use) and keep the raw pointer, which stays valid for the
//     registry's lifetime. Re-resolving the same (name, labels) returns the
//     SAME metric, so two subsystems naming the same series share storage.
//   * Reads (Value, Quantile, RenderPrometheus) are moment-in-time
//     snapshots: each atomic is individually exact, cross-metric and
//     cross-bucket sums may lag concurrent writers but are never torn —
//     rendered histogram series keep their cumulative invariants under
//     concurrent Observe (the `_count` line is the `+Inf` bucket by
//     construction).
//
// Naming convention (enforced by scripts/check_metrics.py, documented in
// README "Observability"): vulnds_<subsystem>_<name>_<unit>, counters end
// in _total, histograms name their unit (e.g. _micros).

#ifndef VULNDS_OBS_METRICS_H_
#define VULNDS_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vulnds::obs {

/// One "key=value" metric label. Values may contain any bytes; the renderer
/// escapes backslash, double quote and newline per the exposition format.
using Label = std::pair<std::string, std::string>;
using LabelSet = std::vector<Label>;

/// Monotonically increasing counter. Lock-free.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Scrape-time copy: overwrites the value. Only for a counter whose
  /// source of truth lives outside the registry (the memory governor's
  /// shed counters); everything else counts in place. The source must
  /// itself be monotone or the rendered counter will violate counter
  /// semantics.
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }

  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time gauge (resident bytes, entry counts, ...). Lock-free.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }

  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }

  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with cumulative Prometheus semantics and an
/// in-process quantile estimator. Observe is lock-free: one binary search
/// over the (immutable) bucket bounds plus three relaxed atomic adds.
class Histogram {
 public:
  /// `bounds` are the finite bucket upper edges, strictly increasing; the
  /// implicit +Inf bucket is always appended. An empty or unsorted bounds
  /// vector is normalized (sorted, deduplicated, non-finite edges dropped).
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  /// Observations recorded so far (the +Inf cumulative count).
  uint64_t Count() const;

  /// Sum of every observed value.
  double Sum() const;

  /// The finite bucket upper edges (exposition order).
  const std::vector<double>& bounds() const { return bounds_; }

  /// Cumulative count per bucket, one entry per finite bound plus the final
  /// +Inf entry. Monotone non-decreasing by construction even under
  /// concurrent Observe: per-bucket counts are read once, then prefix-summed.
  std::vector<uint64_t> CumulativeCounts() const;

  /// Estimates the q-th quantile (q in [0, 1]) by linear interpolation
  /// inside the bucket containing the target rank — the same estimator
  /// Prometheus' histogram_quantile() applies server-side, so a bench can
  /// gate on p99s without scraping. Returns 0 when empty. Ranks landing in
  /// the +Inf bucket return the largest finite bound (the estimate is a
  /// lower bound there; size the ladder so real traffic stays finite).
  double Quantile(double q) const;

 private:
  std::vector<double> bounds_;                      // finite upper edges
  std::unique_ptr<std::atomic<uint64_t>[]> counts_; // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
};

/// Metric kind, driving the exposition TYPE line.
enum class MetricKind { kCounter = 0, kGauge, kHistogram };

/// Thread-safe named registry. A serve::GraphCatalog owns one, and every
/// layer built on that catalog counts into it (the `metrics` verb renders
/// exactly this).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Get-or-create. `help` is fixed by the first registration of `name`;
  /// registering an existing (name, labels) with a different kind throws
  /// std::logic_error (a programming error, not an operational condition).
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const LabelSet& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const LabelSet& labels = {});
  /// `bounds` are fixed by the first registration of `name`; later calls
  /// with different bounds reuse the existing ladder (one family, one
  /// bucket layout — required for the exposition to be coherent).
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const std::vector<double>& bounds,
                          const LabelSet& labels = {});

  /// Renders the whole registry in Prometheus text exposition format:
  /// families in name order, one HELP and one TYPE line per family, series
  /// in label order, histogram series as cumulative _bucket{le=...} plus
  /// _sum and _count. Deterministic given the recorded values.
  std::string RenderPrometheus() const;

  /// Number of registered families (for tests / lint).
  std::size_t family_count() const;

 private:
  struct Series {
    LabelSet labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<double> bounds;  // histogram families only
    std::map<std::string, Series> series;  // keyed by serialized labels
  };

  Series* GetSeries(const std::string& name, const std::string& help,
                    MetricKind kind, const LabelSet& labels,
                    const std::vector<double>* bounds);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

/// Escapes a label value for the exposition format: backslash, double quote
/// and newline become \\, \" and \n.
std::string EscapeLabelValue(const std::string& value);

/// Escapes a HELP text: backslash and newline become \\ and \n.
std::string EscapeHelp(const std::string& value);

/// Serializes a label set as {k1="v1",k2="v2"} (empty string when empty),
/// with `extra` appended last when non-null (the histogram le label).
std::string RenderLabels(const LabelSet& labels, const Label* extra = nullptr);

/// The default latency ladder for serve-path histograms, in microseconds:
/// 1-2.5-5 decades from 1us to 10s. Wide enough that a cached hit (~10us)
/// and a cold paper-scale detect (seconds) both land in interpolatable
/// buckets.
const std::vector<double>& LatencyBucketsMicros();

}  // namespace vulnds::obs

#endif  // VULNDS_OBS_METRICS_H_
