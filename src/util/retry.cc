#include "util/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/lock_rank.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace snor {
namespace internal {

void SleepForMillis(double ms) {
  obs::AssertNoRankedLockHeld("SleepForMillis");
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

double NextBackoffMillis(double current_ms, const RetryOptions& options) {
  const double next = current_ms * std::max(1.0, options.backoff_multiplier);
  return std::min(next, options.max_backoff_ms);
}

double ApplyJitter(double backoff_ms, double jitter, Rng& rng) {
  if (jitter <= 0.0) return backoff_ms;
  const double fraction = std::min(jitter, 1.0);
  return backoff_ms * (1.0 - fraction * rng.UniformDouble());
}

void RecordRetryAttempt() {
  static obs::Counter& attempts =
      obs::MetricsRegistry::Global().counter("util.retry.attempts");
  attempts.Increment();
}

void RecordRetryBackoff(double ms) {
  static obs::Counter& backoffs =
      obs::MetricsRegistry::Global().counter("util.retry.backoffs");
  static obs::Histogram& backoff_ms =
      obs::MetricsRegistry::Global().histogram("util.retry.backoff_ms");
  backoffs.Increment();
  backoff_ms.Record(ms);
}

Status DeadlineError(const RetryOptions& options, int attempts,
                     double elapsed_ms, const Status& last) {
  static obs::Counter& deadlines =
      obs::MetricsRegistry::Global().counter("util.retry.deadline_exceeded");
  deadlines.Increment();
  return Status::DeadlineExceeded(StrFormat(
      "deadline of %.1fms exhausted after %d attempt(s) in %.1fms; last: %s",
      options.deadline_ms, attempts, elapsed_ms, last.ToString().c_str()));
}

}  // namespace internal
}  // namespace snor
