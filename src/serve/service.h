#ifndef SNOR_SERVE_SERVICE_H_
#define SNOR_SERVE_SERVICE_H_

/// \file
/// Long-running recognition service: an admission-controlled request
/// queue in front of the sharded `BatchEngine`, with per-request
/// deadlines, bounded ingest retry, a circuit breaker that degrades to
/// single-modality matching under sustained faults, and drain-on-shutdown
/// semantics (every admitted request is answered exactly once).
///
/// Request lifecycle:
///
///   Submit ──admission──▶ RequestQueue ──dispatcher──▶ BatchEngine
///     │  shed/rejected        │  deadline expired        │  classified
///     ▼                       ▼                          ▼
///   future ◀── Unavailable  future ◀── DeadlineExceeded  future ◀── OK
///
/// The dispatcher is a single thread, so the engine's caller-serialized
/// contract holds by construction and OK answers stay bit-identical to
/// the cold classifier (the same batching proof as `BatchEngine`).

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "obs/introspect.h"
#include "obs/slo.h"
#include "serve/batch_engine.h"
#include "serve/request_queue.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace snor::serve {

/// \brief Circuit-breaker policy over recent per-request outcomes.
struct CircuitBreakerOptions {
  /// Number of most recent primary-path outcomes considered.
  int window = 64;
  /// Minimum outcomes in the window before the breaker may trip.
  int min_samples = 32;
  /// Failure ratio at/above which the breaker opens.
  double failure_ratio = 0.5;
  /// Time the breaker stays open (serving degraded) before a half-open
  /// probe of the primary path.
  double cooldown_ms = 250.0;
  /// False pins the breaker closed (no degradation path).
  bool enabled = true;
};

/// \brief Closed → Open → Half-open breaker driven by batch outcomes.
///
/// Not thread-safe: owned and driven by the service's dispatcher thread
/// only (the service mirrors state/trips into atomics for observers).
class CircuitBreaker {
 public:
  enum class State { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  explicit CircuitBreaker(const CircuitBreakerOptions& options);

  /// Current state, applying the open → half-open cool-down transition.
  State Evaluate();

  /// Feeds one batch's primary-path outcomes into the window. In
  /// half-open state the batch is the probe: any failure re-opens, an
  /// all-success probe closes and clears the window.
  void RecordPrimary(std::uint64_t successes, std::uint64_t failures);

  /// Number of closed/half-open → open transitions so far.
  std::uint64_t trips() const { return trips_; }

 private:
  void Record(bool failure);
  void Open();

  CircuitBreakerOptions options_;
  State state_ = State::kClosed;
  std::vector<char> window_;
  std::size_t next_ = 0;
  std::size_t samples_ = 0;
  std::size_t failures_ = 0;
  std::uint64_t trips_ = 0;
  Stopwatch since_open_;
};

/// \brief Service runtime knobs.
struct ServiceOptions {
  BatchEngineOptions engine;
  RequestQueueOptions queue;
  CircuitBreakerOptions breaker;
  /// Max requests coalesced into one engine batch.
  int max_batch = 64;
  /// Deadline applied by `Submit(query)` / `Classify`; <= 0 disables.
  double default_deadline_ms = 0.0;
  /// Bounded retry for transient per-request ingest faults. The
  /// remaining request deadline further caps `retry.deadline_ms`; full
  /// jitter decorrelates retries of queued neighbours by default.
  RetryOptions retry{.max_attempts = 3, .initial_backoff_ms = 0.05,
                     .backoff_multiplier = 2.0, .max_backoff_ms = 0.5,
                     .deadline_ms = 0.0, .jitter = 1.0, .jitter_seed = 2019};
  /// Seed for the random-baseline engine (kept for spec parity).
  std::uint64_t baseline_seed = 2019;
  /// Rolling-window SLO objectives fed by per-request outcomes (see
  /// `slo_snapshot`; surfaced by `/statusz` and the load bench).
  obs::SloOptions slo;
};

/// \brief Point-in-time outcome accounting. The invariant the load bench
/// and stress tests assert: submitted == ok + shed + timed_out + failed +
/// rejected (every submitted request answered exactly once).
struct ServiceStats {
  std::uint64_t submitted = 0;
  /// Answered with a label (includes degraded-engine answers).
  std::uint64_t ok = 0;
  /// Rejected by queue admission control (watermark / hard cap).
  std::uint64_t shed = 0;
  /// Answered `DeadlineExceeded` (expired in queue, during ingest retry,
  /// or gone stale by classification time).
  std::uint64_t timed_out = 0;
  /// Answered with a non-deadline error (ingest retry exhausted,
  /// internal, or a histogram geometry the gallery does not share).
  std::uint64_t failed = 0;
  /// Rejected because the service was shutting down.
  std::uint64_t rejected = 0;
  /// Subset of `ok` served by the degraded single-modality engine.
  std::uint64_t degraded = 0;
  /// Engine batches dispatched.
  std::uint64_t batches = 0;
  std::uint64_t breaker_trips = 0;
  /// CircuitBreaker::State of the last dispatched batch.
  int breaker_state = 0;
};

/// \brief The recognition-as-a-service runtime (ROADMAP item 1).
///
/// Producers call `Submit`/`Classify` from any thread; a single
/// dispatcher thread coalesces queued requests into shard-parallel
/// engine batches. Destruction drains: queued requests are still
/// answered (or expired) before the dispatcher joins.
class RecognitionService {
 public:
  /// Validating factory: fails like `BatchEngine::Create` (empty or
  /// all-invalid gallery). For hybrid/shape specs a colour-only degraded
  /// engine is also built (best effort) as the circuit breaker's
  /// fallback path. `gallery` is packed once, into a bank both engines
  /// share; the service keeps no reference to `gallery`.
  [[nodiscard]] static Result<std::unique_ptr<RecognitionService>> Create(
      const ApproachSpec& spec, const std::vector<ImageFeatures>& gallery,
      const ServiceOptions& options = {});

  ~RecognitionService();

  RecognitionService(const RecognitionService&) = delete;
  RecognitionService& operator=(const RecognitionService&) = delete;

  /// Submits one query with the service's default deadline. The query
  /// must stay alive until the returned future is ready. The future is
  /// always valid and fulfilled exactly once: OK with a reply, or
  /// `Unavailable` (shed / shutting down / ingest fault exhausted) /
  /// `DeadlineExceeded` / `Internal`, or `InvalidArgument` at once when
  /// the query's histogram geometry differs from the gallery's.
  [[nodiscard]] std::future<Result<ServiceReply>> Submit(
      const ImageFeatures* query);

  /// Same, with an explicit per-request deadline (<= 0 disables).
  [[nodiscard]] std::future<Result<ServiceReply>> Submit(
      const ImageFeatures* query, double deadline_ms);

  /// Blocking convenience wrapper around `Submit`.
  [[nodiscard]] Result<ServiceReply> Classify(const ImageFeatures& query);

  /// Drains and stops: admission closes immediately, every queued
  /// request is still answered (classified, or expired as
  /// `DeadlineExceeded`), then the dispatcher joins. Idempotent and
  /// called by the destructor.
  void Shutdown();

  ServiceStats stats() const;
  std::size_t queue_depth() const { return queue_.depth(); }
  RequestQueueStats queue_stats() const { return queue_.stats(); }
  const ApproachSpec& spec() const { return spec_; }
  const ServiceOptions& options() const { return options_; }
  /// Null when the spec has no single-modality degradation path.
  const BatchEngine* degraded_engine() const { return degraded_.get(); }
  /// Rolling-window SLO state (availability / latency burn rates).
  obs::SloMonitor::Snapshot slo_snapshot() const { return slo_.snapshot(); }
  /// Seconds since the service was constructed.
  double uptime_s() const { return uptime_.ElapsedSeconds(); }

  /// `/statusz` payload: uptime, build info, ServiceStats,
  /// circuit-breaker state, queue depth, and the SLO snapshot.
  std::string StatusJson() const;

 private:
  RecognitionService(const ApproachSpec& spec,
                     std::unique_ptr<BatchEngine> primary,
                     std::unique_ptr<BatchEngine> degraded,
                     std::size_t hist_bins, const ServiceOptions& options);

  void DispatcherLoop();
  void DispatchBatch(std::vector<QueuedRequest> batch);
  /// Fulfils one request exactly once and bumps the outcome counters.
  void Answer(QueuedRequest& request, Result<ServiceReply> result);

  ApproachSpec spec_;
  ServiceOptions options_;
  /// Histogram bins of every gallery view; a query must match.
  std::size_t hist_bins_;
  std::unique_ptr<BatchEngine> primary_;  // GUARDED_BY(dispatcher)
  std::unique_ptr<BatchEngine> degraded_;  // GUARDED_BY(dispatcher)
  RequestQueue queue_;
  CircuitBreaker breaker_;  // GUARDED_BY(dispatcher)

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> degraded_answers_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> breaker_trips_{0};
  std::atomic<int> breaker_state_{0};
  std::atomic<bool> stopping_{false};
  std::once_flag shutdown_once_;
  /// Thread-safe (internally locked); fed by Answer and the Submit
  /// rejection path.
  obs::SloMonitor slo_;
  Stopwatch uptime_;
  std::thread dispatcher_;
};

/// Registers `/statusz` on `server`, backed by `service.StatusJson()`.
/// The service must outlive the server (or be deregistered by replacing
/// the handler) — both `serve_daemon` and `load_serving` stop the server
/// before destroying the service.
void RegisterServiceIntrospection(obs::IntrospectServer& server,
                                  const RecognitionService& service);

}  // namespace snor::serve

#endif  // SNOR_SERVE_SERVICE_H_
