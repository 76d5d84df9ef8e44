#include "util/fault.h"

#include <chrono>
#include <limits>
#include <string>
#include <thread>

#include "obs/lock_rank.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace snor {
namespace {

constexpr auto kNumPoints =
    static_cast<std::size_t>(FaultPoint::kNumFaultPoints);

std::size_t PointIndex(FaultPoint point) {
  const auto idx = static_cast<std::size_t>(point);
  return idx < kNumPoints ? idx : 0;
}

// SplitMix64 finalizer: a single well-mixed draw per (seed, point, probe)
// triple, so fire decisions are independent of wall clock and of each
// other.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double UnitDraw(std::uint64_t seed, std::size_t point, std::uint64_t probe) {
  const std::uint64_t h =
      Mix64(seed ^ Mix64(static_cast<std::uint64_t>(point) * 0x632BE59BD9B4E019ULL + probe));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Per-point fire counters and trace-event names, built once ("io-read"
/// becomes counter `util.fault.io-read.fired` and trace instant
/// `util.fault.io-read`).
struct FireInstruments {
  obs::Counter* counters[kNumPoints];
  std::string trace_names[kNumPoints];
};

const FireInstruments& Instruments() {
  static const FireInstruments instruments = [] {
    FireInstruments built;
    for (std::size_t i = 0; i < kNumPoints; ++i) {
      const std::string base =
          "util.fault." +
          std::string(FaultPointName(static_cast<FaultPoint>(i)));
      built.counters[i] =
          &obs::MetricsRegistry::Global().counter(base + ".fired");
      built.trace_names[i] = base;
    }
    return built;
  }();
  return instruments;
}

void RecordFaultFire(std::size_t point_index) {
  const FireInstruments& instruments = Instruments();
  instruments.counters[point_index]->Increment();
  obs::TraceInstant(instruments.trace_names[point_index].c_str());
}

}  // namespace

std::string_view FaultPointName(FaultPoint point) {
  switch (point) {
    case FaultPoint::kIoRead:
      return "io-read";
    case FaultPoint::kTruncatedFile:
      return "truncated-file";
    case FaultPoint::kCorruptPixel:
      return "corrupt-pixel";
    case FaultPoint::kNanScore:
      return "nan-score";
    case FaultPoint::kSlowWorker:
      return "slow-worker";
    case FaultPoint::kNumFaultPoints:
      break;
  }
  return "unknown";
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::Arm(FaultPoint point, double probability,
                        std::uint64_t seed) {
  PointState& state = points_[PointIndex(point)];
  state.probability = probability;
  state.seed = seed;
  state.probes.store(0, std::memory_order_relaxed);
  state.fires.store(0, std::memory_order_relaxed);
  state.armed.store(true, std::memory_order_release);
}

void FaultInjector::Disarm(FaultPoint point) {
  PointState& state = points_[PointIndex(point)];
  state.armed.store(false, std::memory_order_release);
  state.probes.store(0, std::memory_order_relaxed);
  state.fires.store(0, std::memory_order_relaxed);
}

void FaultInjector::DisarmAll() {
  for (std::size_t i = 0; i < kNumPoints; ++i) {
    Disarm(static_cast<FaultPoint>(i));
  }
}

bool FaultInjector::armed(FaultPoint point) const {
  return points_[PointIndex(point)].armed.load(std::memory_order_acquire);
}

bool FaultInjector::ShouldFire(FaultPoint point) {
  PointState& state = points_[PointIndex(point)];
  if (!state.armed.load(std::memory_order_acquire)) return false;
  const std::uint64_t probe =
      state.probes.fetch_add(1, std::memory_order_relaxed);
  const bool fire =
      UnitDraw(state.seed, PointIndex(point), probe) < state.probability;
  if (fire) {
    state.fires.fetch_add(1, std::memory_order_relaxed);
    RecordFaultFire(PointIndex(point));
  }
  return fire;
}

std::uint64_t FaultInjector::probe_count(FaultPoint point) const {
  return points_[PointIndex(point)].probes.load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::fire_count(FaultPoint point) const {
  return points_[PointIndex(point)].fires.load(std::memory_order_relaxed);
}

bool FaultFires(FaultPoint point) {
  return FaultInjector::Global().ShouldFire(point);
}

Status InjectFault(FaultPoint point, const std::string& detail) {
  if (!FaultFires(point)) return Status::OK();
  return FaultStatus(point, detail);
}

Status FaultStatus(FaultPoint point, const std::string& detail) {
  return Status::Unavailable("injected " +
                             std::string(FaultPointName(point)) + " fault: " +
                             detail);
}

double MaybePoisonScore(double value) {
  if (FaultFires(FaultPoint::kNanScore)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return value;
}

bool NanScoreArmed() {
  return FaultInjector::Global().armed(FaultPoint::kNanScore);
}

void MaybeInjectDelay() {
  obs::AssertNoRankedLockHeld("MaybeInjectDelay");
  if (FaultFires(FaultPoint::kSlowWorker)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void MaybeCorruptBytes(std::uint8_t* data, std::size_t size) {
  if (size == 0 || !FaultFires(FaultPoint::kCorruptPixel)) return;
  // Deterministic pattern: flip every 7th byte starting from a hashed
  // offset, so the corruption is reproducible yet spread over the payload.
  const std::size_t start = static_cast<std::size_t>(Mix64(size)) % 7;
  for (std::size_t i = start; i < size; i += 7) data[i] ^= 0xA5;
}

ScopedFault::ScopedFault(FaultPoint point, double probability,
                         std::uint64_t seed)
    : point_(point) {
  FaultInjector::Global().Arm(point, probability, seed);
}

ScopedFault::~ScopedFault() { FaultInjector::Global().Disarm(point_); }

}  // namespace snor
