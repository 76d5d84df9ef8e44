#ifndef SNOR_UTIL_FAULT_H_
#define SNOR_UTIL_FAULT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace snor {

/// \brief Named fault-injection points.
///
/// Each point models one failure class a deployed robot actually sees;
/// tests and benches arm them at runtime to exercise the degraded paths
/// deterministically (same seed, same rate => same fire pattern).
enum class FaultPoint {
  /// An IO read (file open / frame ingestion) fails outright.
  kIoRead = 0,
  /// A file payload ends early even though the header was fine.
  kTruncatedFile,
  /// Pixel bytes are silently corrupted after a successful read.
  kCorruptPixel,
  /// A shape-match score comes back NaN (poisoned shape modality).
  kNanScore,
  /// A parallel worker stalls for a few milliseconds.
  kSlowWorker,
  kNumFaultPoints,
};

/// Short stable name for a fault point ("io-read", "nan-score", ...).
std::string_view FaultPointName(FaultPoint point);

/// \brief Global registry of armed fault points.
///
/// Disarmed points cost one relaxed atomic load per probe, so injection
/// sites stay in production code. The fire decision hashes
/// (seed, point, probe index), making a run reproducible for a fixed
/// probe sequence regardless of wall clock.
class FaultInjector {
 public:
  /// The process-wide injector used by all `SNOR_FAULT` sites.
  static FaultInjector& Global();

  /// Arms `point`: each probe fires with `probability`, derived from
  /// `seed`. Resets the point's probe/fire counters.
  void Arm(FaultPoint point, double probability, std::uint64_t seed);

  /// Disarms one point (probes return "no fault" again).
  void Disarm(FaultPoint point);

  /// Disarms every point and clears all counters.
  void DisarmAll();

  bool armed(FaultPoint point) const;

  /// Decides whether this probe of `point` fires. Counts the probe.
  bool ShouldFire(FaultPoint point);

  /// Number of probes evaluated since the point was armed.
  std::uint64_t probe_count(FaultPoint point) const;

  /// Number of probes that fired since the point was armed.
  std::uint64_t fire_count(FaultPoint point) const;

 private:
  FaultInjector() = default;

  struct PointState {
    std::atomic<bool> armed{false};
    std::atomic<std::uint64_t> probes{0};
    std::atomic<std::uint64_t> fires{0};
    double probability = 0.0;
    std::uint64_t seed = 0;
  };

  PointState points_[static_cast<std::size_t>(FaultPoint::kNumFaultPoints)];
};

/// True when `point` is armed and this probe fires.
bool FaultFires(FaultPoint point);

/// Probes an IO-shaped fault point: returns `Unavailable` (retryable)
/// when the fault fires, OK otherwise. `detail` names the operation.
[[nodiscard]] Status InjectFault(FaultPoint point, const std::string& detail);

/// The `Unavailable` status `InjectFault` returns when `point` fires, for
/// callers that probe with `FaultFires` and build `detail` only then.
[[nodiscard]] Status FaultStatus(FaultPoint point, const std::string& detail);

/// Returns NaN instead of `value` when `kNanScore` fires.
double MaybePoisonScore(double value);

/// True when `kNanScore` is armed. A disarmed point never fires, so a
/// gallery scan reads this once and calls MaybePoisonScore per view only
/// when it is armed, which leaves an armed run's probe sequence unchanged.
bool NanScoreArmed();

/// Sleeps ~2ms when `kSlowWorker` fires (models a stalled worker).
void MaybeInjectDelay();

/// Deterministically flips bytes of `data` when `kCorruptPixel` fires
/// (silent payload corruption: the read still "succeeds").
void MaybeCorruptBytes(std::uint8_t* data, std::size_t size);

/// \brief RAII arm/disarm for tests: arms `point` on construction and
/// disarms it (clearing counters) on destruction.
class ScopedFault {
 public:
  ScopedFault(FaultPoint point, double probability, std::uint64_t seed);
  ~ScopedFault();

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  FaultPoint point_;
};

}  // namespace snor

#endif  // SNOR_UTIL_FAULT_H_
