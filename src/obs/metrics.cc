#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/json.h"

namespace snor::obs {
namespace {

std::int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  bool has_dot = false;
  char prev = '\0';
  for (char c : name) {
    if (c == '.') {
      if (prev == '.') return false;  // Empty segment.
      has_dot = true;
    } else if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                 c == '_' || c == '-')) {
      return false;
    }
    prev = c;
  }
  return has_dot;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::Record(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t index =
      static_cast<std::size_t>(it - bounds_.begin());  // Overflow at end.
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(sum_, value);
  AtomicMinDouble(min_, value);
  AtomicMaxDouble(max_, value);
}

double Histogram::min() const {
  const double v = min_.load(std::memory_order_relaxed);
  return v == std::numeric_limits<double>::infinity() ? 0.0 : v;
}

double Histogram::max() const {
  const double v = max_.load(std::memory_order_relaxed);
  return v == -std::numeric_limits<double>::infinity() ? 0.0 : v;
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  return i < buckets_.size() ? buckets_[i].load(std::memory_order_relaxed)
                             : 0;
}

double Histogram::Percentile(double p) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target observation (1-based, nearest-rank).
  const double rank = std::max(1.0, p / 100.0 * static_cast<double>(total));
  double seen = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double in_bucket =
        static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= rank) {
      // Interpolate linearly inside the bucket, then clamp to observed
      // extremes so small samples don't report bucket edges no value hit.
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi =
          i < bounds_.size() ? bounds_[i] : max();  // Overflow bucket.
      const double fraction = (rank - seen) / in_bucket;
      const double estimate = lo + (hi - lo) * fraction;
      return std::clamp(estimate, min(), max());
    }
    seen += in_bucket;
  }
  return max();
}

namespace {

/// Nearest-rank percentile over a captured bucket array (same math as
/// Histogram::Percentile but torn-read safe: every field comes from the
/// one-pass capture, and the result is clamped to the reconciled
/// [min, max]).
double PercentileFromBuckets(const std::vector<std::uint64_t>& buckets,
                             const std::vector<double>& bounds, double p,
                             std::uint64_t total, double mn, double mx) {
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = std::max(1.0, p / 100.0 * static_cast<double>(total));
  double seen = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= rank) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : mx;
      const double fraction = (rank - seen) / in_bucket;
      const double estimate = lo + (hi - lo) * fraction;
      return std::clamp(estimate, mn, mx);
    }
    seen += in_bucket;
  }
  return mx;
}

}  // namespace

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  // One-pass capture of the buckets; everything else is derived from (or
  // reconciled against) this capture so a concurrent Record can never
  // make the emitted fields disagree.
  snap.buckets.resize(buckets_.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snap.buckets[i];
  }
  snap.count = total;
  if (total == 0) return snap;

  // A concurrent Record may have bumped a bucket before updating
  // min_/max_/sum_; fall back to bucket edges for unset extremes and
  // clamp sum into the only range consistent with count/min/max.
  double mn = min_.load(std::memory_order_relaxed);
  double mx = max_.load(std::memory_order_relaxed);
  if (mn == std::numeric_limits<double>::infinity()) {
    std::size_t first = 0;
    while (snap.buckets[first] == 0) ++first;
    mn = first == 0 ? 0.0 : bounds_[first - 1];
  }
  if (mx == -std::numeric_limits<double>::infinity()) {
    std::size_t last = snap.buckets.size() - 1;
    while (snap.buckets[last] == 0) --last;
    mx = last < bounds_.size() ? bounds_[last] : mn;
  }
  if (mx < mn) mx = mn;
  snap.min = mn;
  snap.max = mx;
  const double total_f = static_cast<double>(total);
  snap.sum = std::clamp(sum_.load(std::memory_order_relaxed), total_f * mn,
                        total_f * mx);
  snap.p50 = PercentileFromBuckets(snap.buckets, bounds_, 50.0, total, mn, mx);
  snap.p95 = PercentileFromBuckets(snap.buckets, bounds_, 95.0, total, mn, mx);
  snap.p99 = PercentileFromBuckets(snap.buckets, bounds_, 99.0, total, mn, mx);
  return snap;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::vector<double> DefaultLatencyBoundsUs() {
  return {1.0,    2.0,    5.0,    10.0,   20.0,   50.0,   100.0,
          200.0,  500.0,  1e3,    2e3,    5e3,    1e4,    2e4,
          5e4,    1e5,    2e5,    5e5,    1e6,    2e6,    5e6};
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<RankedMutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<RankedMutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return histogram(name, DefaultLatencyBoundsUs());
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard<RankedMutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<RankedMutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
}

std::string MetricsRegistry::DumpText() const {
  std::lock_guard<RankedMutex> lock(mutex_);
  std::string out;
  char line[256];
  for (const auto& [name, counter] : counters_) {
    std::snprintf(line, sizeof(line), "counter %s = %llu\n", name.c_str(),
                  static_cast<unsigned long long>(counter->value()));
    out += line;
  }
  for (const auto& [name, gauge] : gauges_) {
    std::snprintf(line, sizeof(line), "gauge %s = %.6g\n", name.c_str(),
                  gauge->value());
    out += line;
  }
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot s = histogram->snapshot();
    std::snprintf(line, sizeof(line),
                  "histogram %s count=%llu sum=%.6g min=%.6g max=%.6g "
                  "p50=%.6g p95=%.6g p99=%.6g\n",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  s.sum, s.min, s.max, s.p50, s.p95, s.p99);
    out += line;
  }
  return out;
}

std::string MetricsRegistry::DumpJson() const {
  std::lock_guard<RankedMutex> lock(mutex_);
  JsonWriter json;
  json.BeginObject();
  json.Key("counters");
  json.BeginObject();
  for (const auto& [name, counter] : counters_) {
    json.Key(name);
    json.Int(static_cast<std::int64_t>(counter->value()));
  }
  json.EndObject();
  json.Key("gauges");
  json.BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    json.Key(name);
    json.Number(gauge->value());
  }
  json.EndObject();
  json.Key("histograms");
  json.BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot s = histogram->snapshot();
    json.Key(name);
    json.BeginObject();
    json.Key("count");
    json.Int(static_cast<std::int64_t>(s.count));
    json.Key("sum");
    json.Number(s.sum);
    json.Key("min");
    json.Number(s.min);
    json.Key("max");
    json.Number(s.max);
    json.Key("p50");
    json.Number(s.p50);
    json.Key("p95");
    json.Number(s.p95);
    json.Key("p99");
    json.Number(s.p99);
    json.Key("bounds");
    json.BeginArray();
    for (double bound : s.bounds) json.Number(bound);
    json.EndArray();
    json.Key("buckets");
    json.BeginArray();
    for (std::uint64_t b : s.buckets) json.Int(static_cast<std::int64_t>(b));
    json.EndArray();
    // Running totals; the last entry always equals "count".
    json.Key("cumulative");
    json.BeginArray();
    std::uint64_t running = 0;
    for (std::uint64_t b : s.buckets) {
      running += b;
      json.Int(static_cast<std::int64_t>(running));
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

ScopedLatencyUs::ScopedLatencyUs(Histogram& histogram)
    : histogram_(histogram), start_us_(SteadyNowMicros()) {}

ScopedLatencyUs::~ScopedLatencyUs() {
  const std::int64_t elapsed = SteadyNowMicros() - start_us_;
  histogram_.Record(elapsed > 0 ? static_cast<double>(elapsed) : 0.0);
}

}  // namespace snor::obs
