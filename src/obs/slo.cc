#include "obs/slo.h"

#include <algorithm>
#include <chrono>

#include "obs/json.h"

namespace snor::obs {
namespace {

std::uint64_t SteadyNowSeconds() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Burn rate with a guarded denominator: an objective of 1.0 budgets no
/// errors at all, so any error at all reads as a very fast burn instead
/// of dividing by zero (and the result stays finite for JSON).
double BurnRate(double compliance, double objective) {
  const double error_rate = 1.0 - compliance;
  if (error_rate <= 0.0) return 0.0;
  const double budget = std::max(1.0 - objective, 1e-9);
  return std::min(error_rate / budget, 1e9);
}

}  // namespace

SloMonitor::SloMonitor(const SloOptions& options) : options_([&options] {
  SloOptions o = options;
  if (o.bucket_seconds == 0) o.bucket_seconds = 1;
  if (o.num_buckets == 0) o.num_buckets = 1;
  return o;
}()) {
  ring_.resize(options_.num_buckets);
}

SloMonitor::Bucket& SloMonitor::BucketForLocked(std::uint64_t now_s) {
  const std::uint64_t period = now_s / options_.bucket_seconds;
  Bucket& bucket = ring_[period % ring_.size()];
  if (bucket.period != period) {
    bucket = Bucket{};
    bucket.period = period;
  }
  return bucket;
}

void SloMonitor::Record(bool ok, double latency_us) {
  RecordAt(ok, latency_us, SteadyNowSeconds());
}

void SloMonitor::RecordAt(bool ok, double latency_us, std::uint64_t now_s) {
  const bool fast = ok && latency_us <= options_.latency_threshold_us;
  std::lock_guard<RankedMutex> lock(mutex_);
  Bucket& bucket = BucketForLocked(now_s);
  ++bucket.total;
  ++total_;
  if (ok) {
    ++bucket.ok;
    ++ok_;
  }
  if (fast) {
    ++bucket.fast;
    ++fast_;
  }
}

SloMonitor::Snapshot SloMonitor::snapshot() const {
  return SnapshotAt(SteadyNowSeconds());
}

SloMonitor::Snapshot SloMonitor::SnapshotAt(std::uint64_t now_s) const {
  std::lock_guard<RankedMutex> lock(mutex_);
  Snapshot snap;
  snap.total = total_;
  snap.ok = ok_;
  snap.fast = fast_;
  if (total_ > 0) {
    snap.availability =
        static_cast<double>(ok_) / static_cast<double>(total_);
    snap.latency_compliance =
        static_cast<double>(fast_) / static_cast<double>(total_);
  }
  const std::uint64_t current_period = now_s / options_.bucket_seconds;
  for (std::uint64_t window_s : options_.burn_windows_s) {
    WindowBurn burn;
    burn.window_s = window_s;
    // Whole buckets covering the window, clamped to retained history.
    std::uint64_t periods =
        (window_s + options_.bucket_seconds - 1) / options_.bucket_seconds;
    periods = std::max<std::uint64_t>(1, periods);
    periods = std::min<std::uint64_t>(periods, ring_.size());
    const std::uint64_t oldest_period =
        current_period >= periods - 1 ? current_period - (periods - 1) : 0;
    for (const Bucket& bucket : ring_) {
      if (bucket.total == 0 && bucket.period == 0) continue;  // Never used.
      if (bucket.period < oldest_period || bucket.period > current_period) {
        continue;  // Stale slot awaiting reuse, or outside the window.
      }
      burn.total += bucket.total;
      burn.ok += bucket.ok;
      burn.fast += bucket.fast;
    }
    if (burn.total > 0) {
      burn.availability =
          static_cast<double>(burn.ok) / static_cast<double>(burn.total);
      burn.latency_compliance =
          static_cast<double>(burn.fast) / static_cast<double>(burn.total);
    }
    burn.availability_burn_rate =
        BurnRate(burn.availability, options_.availability_objective);
    burn.latency_burn_rate =
        BurnRate(burn.latency_compliance, options_.latency_objective);
    snap.worst_availability_burn =
        std::max(snap.worst_availability_burn, burn.availability_burn_rate);
    snap.worst_latency_burn =
        std::max(snap.worst_latency_burn, burn.latency_burn_rate);
    snap.windows.push_back(burn);
  }
  return snap;
}

void SloMonitor::Reset() {
  std::lock_guard<RankedMutex> lock(mutex_);
  std::fill(ring_.begin(), ring_.end(), Bucket{});
  total_ = 0;
  ok_ = 0;
  fast_ = 0;
}

std::string SloSnapshotJson(const SloMonitor::Snapshot& snapshot) {
  JsonWriter json;
  json.BeginObject();
  json.Key("total");
  json.Int(static_cast<std::int64_t>(snapshot.total));
  json.Key("ok");
  json.Int(static_cast<std::int64_t>(snapshot.ok));
  json.Key("fast");
  json.Int(static_cast<std::int64_t>(snapshot.fast));
  json.Key("availability");
  json.Number(snapshot.availability);
  json.Key("latency_compliance");
  json.Number(snapshot.latency_compliance);
  json.Key("worst_availability_burn");
  json.Number(snapshot.worst_availability_burn);
  json.Key("worst_latency_burn");
  json.Number(snapshot.worst_latency_burn);
  json.Key("windows");
  json.BeginArray();
  for (const SloMonitor::WindowBurn& burn : snapshot.windows) {
    json.BeginObject();
    json.Key("window_s");
    json.Int(static_cast<std::int64_t>(burn.window_s));
    json.Key("total");
    json.Int(static_cast<std::int64_t>(burn.total));
    json.Key("ok");
    json.Int(static_cast<std::int64_t>(burn.ok));
    json.Key("fast");
    json.Int(static_cast<std::int64_t>(burn.fast));
    json.Key("availability");
    json.Number(burn.availability);
    json.Key("latency_compliance");
    json.Number(burn.latency_compliance);
    json.Key("availability_burn_rate");
    json.Number(burn.availability_burn_rate);
    json.Key("latency_burn_rate");
    json.Number(burn.latency_burn_rate);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace snor::obs
