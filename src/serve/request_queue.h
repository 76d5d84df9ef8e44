#ifndef SNOR_SERVE_REQUEST_QUEUE_H_
#define SNOR_SERVE_REQUEST_QUEUE_H_

/// \file
/// Bounded, admission-controlled request queue for the recognition
/// service (many producer threads, one dispatcher).
///
/// Admission control is the first line of defence under overload: the
/// queue has a hard capacity cap, and a lower shed watermark past which
/// deadline-carrying requests are rejected immediately (reject-newest) —
/// a request that would sit behind a deep backlog is going to blow its
/// deadline anyway, and shedding it at the door costs nothing while
/// serving it late costs a full gallery scan. Every rejection is counted
/// in the `serve.queue.shed` metric so load-shedding is observable, never
/// silent.
///
/// Shutdown uses drain semantics: `Close()` stops new admissions but
/// leaves everything already queued poppable, so the dispatcher can keep
/// answering until the queue is empty and no accepted request is ever
/// dropped.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <vector>

#include "core/feature_cache.h"
#include "obs/lock_rank.h"
#include "obs/trace.h"
#include "util/status.h"

namespace snor::serve {

/// \brief One answered recognition request.
struct ServiceReply {
  ObjectClass label = ObjectClass::kChair;
  /// True when the circuit breaker answered via the degraded
  /// single-modality engine instead of the primary approach.
  bool degraded = false;
  /// Milliseconds the request waited in the queue before dispatch.
  double queue_wait_ms = 0.0;
};

/// \brief The one reply a request owes its caller. Move-only. An armed
/// handle is answered exactly once: by `Answer`, or, if it is destroyed
/// first, with `Internal("dropped reply")`, counted in the
/// `serve.service.dropped_replies` metric. A default-constructed or
/// moved-from handle is empty: it never replies and never counts.
class ReplyOnce {
 public:
  ReplyOnce() = default;
  ReplyOnce(ReplyOnce&& other) noexcept;
  ReplyOnce& operator=(ReplyOnce&& other) noexcept;
  ReplyOnce(const ReplyOnce&) = delete;
  ReplyOnce& operator=(const ReplyOnce&) = delete;
  ~ReplyOnce();

  /// Arms an empty handle and returns the future its reply fulfils.
  [[nodiscard]] std::future<Result<ServiceReply>> Arm();

  /// Fulfils the future and empties the handle. Aborts, in every build,
  /// when the handle is empty (never armed, moved from or answered).
  void Answer(Result<ServiceReply> result) &&;

  bool armed() const { return promise_.has_value(); }

 private:
  void DropIfArmed();

  /// Engaged exactly while armed.
  std::optional<std::promise<Result<ServiceReply>>> promise_;
};

/// \brief A queued recognition request: the query (owned by the caller
/// and alive until the reply future is fulfilled), an optional absolute
/// deadline, and the reply the dispatcher owes exactly once.
struct QueuedRequest {
  const ImageFeatures* query = nullptr;
  std::uint64_t id = 0;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  std::chrono::steady_clock::time_point enqueue_time{};
  /// Causal trace scope minted at Submit (inactive when tracing is off);
  /// re-installed on every thread that works on this request so its
  /// spans form one chain across producer, dispatcher, and workers.
  obs::TraceContext trace;
  ReplyOnce reply;
};

/// \brief Admission-control knobs.
struct RequestQueueOptions {
  /// Hard cap: `Enqueue` sheds every request once this depth is reached.
  std::size_t capacity = 256;
  /// Depth at which deadline-carrying requests are shed (reject-newest);
  /// 0 defaults to 3/4 of `capacity`. Deadline-free requests are only
  /// bounded by the hard cap.
  std::size_t shed_watermark = 0;
};

/// \brief Counters since construction (monotonic, mutex-consistent).
struct RequestQueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t shed = 0;
  std::uint64_t dequeued = 0;
};

/// \brief Bounded multi-producer / single-dispatcher FIFO with admission
/// control. All methods are thread-safe.
class RequestQueue {
 public:
  explicit RequestQueue(const RequestQueueOptions& options);

  /// Admits or sheds `request`. On OK the request has been moved into
  /// the queue; on failure (`Unavailable`: shed by admission control, or
  /// closed for draining) the request is untouched and the caller still
  /// owns its reply.
  [[nodiscard]] Status Enqueue(QueuedRequest& request);

  /// Pops up to `max_batch` requests in FIFO order, blocking while the
  /// queue is open and empty. Returns an empty batch only when the queue
  /// is closed and fully drained — the dispatcher's exit signal.
  [[nodiscard]] std::vector<QueuedRequest> PopBatch(std::size_t max_batch);

  /// Closes admission (further `Enqueue` calls fail) but keeps queued
  /// requests poppable so the dispatcher can drain them.
  void Close();

  std::size_t depth() const;
  bool closed() const;
  RequestQueueStats stats() const;

  const RequestQueueOptions& options() const { return options_; }

 private:
  RequestQueueOptions options_;
  mutable obs::RankedMutex mutex_{obs::LockRank::kRequestQueue};
  obs::CondVar cv_;
  std::deque<QueuedRequest> queue_;  // GUARDED_BY(mutex_)
  bool closed_ = false;  // GUARDED_BY(mutex_)
  RequestQueueStats stats_;  // GUARDED_BY(mutex_)
};

}  // namespace snor::serve

#endif  // SNOR_SERVE_REQUEST_QUEUE_H_
