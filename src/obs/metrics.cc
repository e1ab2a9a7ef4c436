#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/parse.h"

namespace vulnds::obs {

namespace {

// Serialized-label key for the per-family series map. Uses the rendered
// form so the map's iteration order is the exposition order.
std::string SeriesKey(const LabelSet& labels) { return RenderLabels(labels); }

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

// %.17g round-trips doubles; exposition values use the shortest exact form
// a scraper can parse back. Integers render without an exponent.
std::string FormatValue(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  std::string text;
  AppendRoundTrip(&text, value);
  return text;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  bounds_.erase(std::remove_if(bounds_.begin(), bounds_.end(),
                               [](double b) { return !std::isfinite(b); }),
                bounds_.end());
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  // First bucket whose upper edge admits the value; the +Inf bucket (index
  // bounds_.size()) catches everything else, NaN included, so Count() always
  // equals the number of Observe calls.
  const std::size_t index = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  counts_[index].fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    total += counts_[i].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const { return sum_.load(std::memory_order_relaxed); }

std::vector<uint64_t> Histogram::CumulativeCounts() const {
  std::vector<uint64_t> cumulative(bounds_.size() + 1, 0);
  uint64_t running = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    running += counts_[i].load(std::memory_order_relaxed);
    cumulative[i] = running;
  }
  return cumulative;
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const std::vector<uint64_t> cumulative = CumulativeCounts();
  const uint64_t total = cumulative.back();
  if (total == 0) return 0.0;
  // Target rank in [1, total]; the bucket holding it gets interpolated.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * total)));
  std::size_t bucket = 0;
  while (bucket < cumulative.size() && cumulative[bucket] < rank) ++bucket;
  if (bucket >= bounds_.size()) {
    // +Inf bucket: no finite upper edge to interpolate toward. Report the
    // largest finite bound (a lower bound on the true quantile).
    return bounds_.empty() ? 0.0 : bounds_.back();
  }
  const double upper = bounds_[bucket];
  const double lower = bucket == 0 ? 0.0 : bounds_[bucket - 1];
  const uint64_t below = bucket == 0 ? 0 : cumulative[bucket - 1];
  const uint64_t in_bucket = cumulative[bucket] - below;
  if (in_bucket == 0) return upper;
  const double fraction =
      static_cast<double>(rank - below) / static_cast<double>(in_bucket);
  return lower + (upper - lower) * fraction;
}

MetricRegistry::Series* MetricRegistry::GetSeries(
    const std::string& name, const std::string& help, MetricKind kind,
    const LabelSet& labels, const std::vector<double>* bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [family_it, family_created] = families_.try_emplace(name);
  Family& family = family_it->second;
  if (family_created) {
    family.help = help;
    family.kind = kind;
    if (bounds != nullptr) family.bounds = *bounds;
  } else if (family.kind != kind) {
    throw std::logic_error("metric '" + name + "' registered as " +
                           KindName(family.kind) + ", requested as " +
                           KindName(kind));
  }
  auto [series_it, series_created] =
      family.series.try_emplace(SeriesKey(labels));
  Series& series = series_it->second;
  if (series_created) {
    series.labels = labels;
    switch (kind) {
      case MetricKind::kCounter:
        series.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        series.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        series.histogram = std::make_unique<Histogram>(family.bounds);
        break;
    }
  }
  return &series;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const std::string& help,
                                    const LabelSet& labels) {
  return GetSeries(name, help, MetricKind::kCounter, labels, nullptr)
      ->counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const std::string& help,
                                const LabelSet& labels) {
  return GetSeries(name, help, MetricKind::kGauge, labels, nullptr)
      ->gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const std::string& help,
                                        const std::vector<double>& bounds,
                                        const LabelSet& labels) {
  return GetSeries(name, help, MetricKind::kHistogram, labels, &bounds)
      ->histogram.get();
}

std::string MetricRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, family] : families_) {
    out << "# HELP " << name << " " << EscapeHelp(family.help) << "\n";
    out << "# TYPE " << name << " " << KindName(family.kind) << "\n";
    for (const auto& [key, series] : family.series) {
      switch (family.kind) {
        case MetricKind::kCounter:
          out << name << RenderLabels(series.labels) << " "
              << series.counter->Value() << "\n";
          break;
        case MetricKind::kGauge:
          out << name << RenderLabels(series.labels) << " "
              << FormatValue(series.gauge->Value()) << "\n";
          break;
        case MetricKind::kHistogram: {
          const Histogram& hist = *series.histogram;
          const std::vector<uint64_t> cumulative = hist.CumulativeCounts();
          for (std::size_t i = 0; i < hist.bounds().size(); ++i) {
            const Label le{"le", FormatValue(hist.bounds()[i])};
            out << name << "_bucket" << RenderLabels(series.labels, &le)
                << " " << cumulative[i] << "\n";
          }
          const Label le_inf{"le", "+Inf"};
          out << name << "_bucket" << RenderLabels(series.labels, &le_inf)
              << " " << cumulative.back() << "\n";
          out << name << "_sum" << RenderLabels(series.labels) << " "
              << FormatValue(hist.Sum()) << "\n";
          // _count is the +Inf cumulative read from the SAME snapshot, so
          // the exposition invariant holds under concurrent Observe.
          out << name << "_count" << RenderLabels(series.labels) << " "
              << cumulative.back() << "\n";
          break;
        }
      }
    }
  }
  return out.str();
}

std::size_t MetricRegistry::family_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return families_.size();
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string EscapeHelp(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderLabels(const LabelSet& labels, const Label* extra) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key;
    out += "=\"";
    out += EscapeLabelValue(value);
    out += "\"";
  }
  if (extra != nullptr) {
    if (!first) out += ",";
    out += extra->first;
    out += "=\"";
    out += EscapeLabelValue(extra->second);
    out += "\"";
  }
  out += "}";
  return out;
}

const std::vector<double>& LatencyBucketsMicros() {
  // 1-2.5-5 ladder over seven decades: 1us (cached-hit floor) to 10s
  // (paper-scale cold detect ceiling).
  static const std::vector<double> kBuckets = {
      1,       2.5,       5,       10,      25,      50,        100,
      250,     500,       1000,    2500,    5000,    10000,     25000,
      50000,   100000,    250000,  500000,  1000000, 2500000,   5000000,
      10000000};
  return kBuckets;
}

}  // namespace vulnds::obs
