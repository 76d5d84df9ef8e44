#ifndef SNOR_OBS_METRICS_H_
#define SNOR_OBS_METRICS_H_

/// \file
/// Process-wide metrics registry: named counters, gauges, and fixed-bucket
/// latency histograms with p50/p95/p99 summaries, dumpable as text or
/// JSON. Metric names follow the `layer.stage.detail` lowercase dotted
/// convention (enforced by snor_lint's span-metric-name rule).
///
/// Hot-path cost: one relaxed atomic op per Counter::Increment, a CAS
/// loop per Gauge/Histogram update. Registry lookups take a mutex — cache
/// the returned reference at the call site (`static Counter& c = ...`);
/// references stay valid forever (metrics are never unregistered, only
/// reset).
///
/// Must not depend on util/ (obs sits below util in the layering).

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/lock_rank.h"

namespace snor::obs {

/// True when `name` follows the `layer.stage.detail` convention: at least
/// two non-empty dot-separated segments of [a-z0-9_-] characters.
bool IsValidMetricName(std::string_view name);

/// \brief Monotonically increasing event count.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// \brief Last-written instantaneous value (queue depth, worker count).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }

  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket histogram with percentile estimation.
///
/// Bucket upper bounds are set at construction (ascending); an implicit
/// overflow bucket catches everything above the last bound. Percentiles
/// interpolate linearly inside the containing bucket and are clamped to
/// the observed [min, max].
class Histogram {
 public:
  /// `bounds` are ascending inclusive upper bucket bounds.
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  double min() const;
  double max() const;

  /// Estimated value at percentile `p` in [0, 100]; 0 when empty.
  double Percentile(double p) const;

  /// \brief Point-in-time summary used by the dumpers and bench telemetry.
  ///
  /// Torn-read tolerant: the per-bucket counts are captured in one pass
  /// and are authoritative — `count` is exactly their sum, percentiles
  /// are computed from the same capture, and `sum`/`min`/`max` are
  /// clamped so no combination of concurrent Records can make the
  /// emitted fields disagree (e.g. `sum` outside [count*min, count*max]).
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// Ascending bucket upper bounds (copy of bounds()).
    std::vector<double> bounds;
    /// Per-bucket counts; bounds.size() + 1 entries (last = overflow).
    std::vector<std::uint64_t> buckets;
  };

  Snapshot snapshot() const;

  void Reset();

  const std::vector<double>& bounds() const { return bounds_; }

  /// Observation count of bucket `i` (i in [0, bounds().size()]; the last
  /// index is the overflow bucket).
  std::uint64_t bucket_count(std::size_t i) const;

 private:
  std::vector<double> bounds_;
  /// bounds_.size() + 1 entries; the last is the overflow bucket.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Default exponential latency bounds in microseconds (1µs .. 5s).
std::vector<double> DefaultLatencyBoundsUs();

/// \brief Registry of all named metrics. Entries are created on first
/// access and never removed; `ResetAll` zeroes values but keeps
/// registrations (cached references stay valid).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Uses DefaultLatencyBoundsUs() when the histogram does not exist yet.
  Histogram& histogram(std::string_view name);
  /// Creates with explicit bounds; `bounds` are ignored when the
  /// histogram already exists.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  void ResetAll();

  /// One metric per line, sorted by name, human-readable.
  std::string DumpText() const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
  /// max,p50,p95,p99}}} — sorted keys, valid JSON.
  std::string DumpJson() const;

 private:
  mutable RankedMutex mutex_{LockRank::kMetricsRegistry};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>>
      counters_;  // GUARDED_BY(mutex_)
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>>
      gauges_;  // GUARDED_BY(mutex_)
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
      histograms_;  // GUARDED_BY(mutex_)
};

/// \brief RAII helper recording the scope's wall-clock duration (in
/// microseconds) into a histogram on destruction.
class ScopedLatencyUs {
 public:
  explicit ScopedLatencyUs(Histogram& histogram);
  ~ScopedLatencyUs();

  ScopedLatencyUs(const ScopedLatencyUs&) = delete;
  ScopedLatencyUs& operator=(const ScopedLatencyUs&) = delete;

 private:
  Histogram& histogram_;
  std::int64_t start_us_ = 0;
};

}  // namespace snor::obs

#endif  // SNOR_OBS_METRICS_H_
