#ifndef SNOR_OBS_SLO_H_
#define SNOR_OBS_SLO_H_

/// \file
/// Rolling-window SLO tracking with multi-window burn-rate computation,
/// in the style of SRE error-budget practice.
///
/// An `SloMonitor` tracks two objectives over a ring of fixed-width time
/// buckets:
///  - **availability**: the fraction of requests that succeeded must stay
///    at or above `availability_objective`;
///  - **latency**: the fraction of requests finishing under
///    `latency_threshold_us` must stay at or above `latency_objective`.
///
/// For each configured window (e.g. 1m / 5m / 1h) the monitor reports the
/// observed compliance and the **burn rate**: the ratio of the error rate
/// actually observed in the window to the error rate the objective
/// budgets for. A burn rate of 1.0 means the error budget is being spent
/// exactly as fast as it accrues; sustained multi-window burn above ~1 is
/// the classic page condition (fast-burn alerts use the short window,
/// slow-burn the long one).
///
/// Thread-safe; `Record` is a single short mutex-guarded ring update.
/// Time is taken from steady_clock, with `*At` variants accepting an
/// explicit second timestamp for deterministic tests.
///
/// Sits at the bottom of the dependency stack with the rest of obs: must
/// not include anything from util/ or serve/.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/lock_rank.h"

namespace snor::obs {

/// \brief Objectives and window geometry for an SloMonitor.
struct SloOptions {
  /// Fraction of requests that must succeed (e.g. 0.99 = "two nines").
  double availability_objective = 0.99;
  /// Fraction of requests that must finish under latency_threshold_us.
  double latency_objective = 0.99;
  /// A request at or under this latency counts as "fast".
  double latency_threshold_us = 50000.0;
  /// Ring bucket width; windows are rounded up to whole buckets.
  std::uint64_t bucket_seconds = 1;
  /// Ring length (total retained history = bucket_seconds * num_buckets).
  std::size_t num_buckets = 3600;
  /// Burn-rate windows in seconds, short to long. Windows longer than
  /// the retained history are clamped to it.
  std::vector<std::uint64_t> burn_windows_s = {60, 300, 3600};
};

/// \brief Rolling-window availability + latency-objective tracker.
class SloMonitor {
 public:
  explicit SloMonitor(const SloOptions& options = {});

  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  /// Records one finished request ("now" from steady_clock).
  void Record(bool ok, double latency_us);

  /// Test seam: record at an explicit absolute second.
  void RecordAt(bool ok, double latency_us, std::uint64_t now_s);

  /// \brief One burn-rate window's observed state.
  struct WindowBurn {
    std::uint64_t window_s = 0;
    std::uint64_t total = 0;
    std::uint64_t ok = 0;
    std::uint64_t fast = 0;
    /// ok/total (1.0 when the window is empty).
    double availability = 1.0;
    /// fast/total (1.0 when the window is empty).
    double latency_compliance = 1.0;
    /// (1 - availability) / (1 - availability_objective).
    double availability_burn_rate = 0.0;
    /// (1 - latency_compliance) / (1 - latency_objective).
    double latency_burn_rate = 0.0;
  };

  /// \brief Point-in-time SLO state: lifetime totals plus per-window
  /// burn rates.
  struct Snapshot {
    std::uint64_t total = 0;
    std::uint64_t ok = 0;
    std::uint64_t fast = 0;
    /// Lifetime ok/total (1.0 when nothing recorded yet).
    double availability = 1.0;
    /// Lifetime fast/total (1.0 when nothing recorded yet).
    double latency_compliance = 1.0;
    /// Max availability_burn_rate across windows.
    double worst_availability_burn = 0.0;
    /// Max latency_burn_rate across windows.
    double worst_latency_burn = 0.0;
    std::vector<WindowBurn> windows;
  };

  Snapshot snapshot() const;

  /// Test seam: snapshot as of an explicit absolute second.
  Snapshot SnapshotAt(std::uint64_t now_s) const;

  /// Clears all buckets and lifetime totals (options persist).
  void Reset();

  const SloOptions& options() const { return options_; }

 private:
  /// One ring bucket, keyed by its absolute period so stale slots are
  /// detected lazily on reuse.
  struct Bucket {
    std::uint64_t period = 0;
    std::uint64_t total = 0;
    std::uint64_t ok = 0;
    std::uint64_t fast = 0;
  };

  Bucket& BucketForLocked(std::uint64_t now_s);

  mutable RankedMutex mutex_{LockRank::kSloMonitor};
  const SloOptions options_;
  std::vector<Bucket> ring_;  // GUARDED_BY(mutex_)
  std::uint64_t total_ = 0;  // GUARDED_BY(mutex_)
  std::uint64_t ok_ = 0;  // GUARDED_BY(mutex_)
  std::uint64_t fast_ = 0;  // GUARDED_BY(mutex_)
};

/// Renders a Snapshot as a JSON object (used by `/statusz` and bench
/// telemetry); snake_case keys.
std::string SloSnapshotJson(const SloMonitor::Snapshot& snapshot);

}  // namespace snor::obs

#endif  // SNOR_OBS_SLO_H_
