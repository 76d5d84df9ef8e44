#ifndef SNOR_OBS_TRACE_H_
#define SNOR_OBS_TRACE_H_

/// \file
/// Lock-cheap, thread-safe trace recorder with RAII scoped spans and
/// request-scoped distributed tracing.
///
/// Spans are recorded into per-thread ring buffers (one uncontended mutex
/// per thread; the only contention is with an exporting reader) and can be
/// exported as Chrome `trace_event` JSON, loadable in Perfetto or
/// chrome://tracing. Span names follow the `layer.stage.detail` lowercase
/// dotted convention (enforced by snor_lint's span-metric-name rule).
///
/// Request scoping: a `TraceContext` (request id + parent span id)
/// travels with a request across threads — installed with
/// `ScopedTraceContext` (or `SNOR_TRACE_SPAN_CTX`) on whichever thread is
/// currently working on the request. Every span recorded while a context
/// is installed carries the request id plus a fresh span id and its
/// parent's span id, and the Chrome export adds `flow` events keyed by
/// request id so one request's spans across producer, dispatcher, and
/// worker threads render as a single causal chain in Perfetto.
///
/// Tail-keep retention: `RequestTraceStore` buffers the spans of each
/// in-flight request and, at `Finish`, keeps the full span tree only for
/// requests that errored or exceeded a latency threshold (plus an
/// optional 1-in-N sample of healthy requests). Everything else is
/// discarded, which keeps request tracing cheap enough to leave on in a
/// live service; kept traces feed the introspection server's `/tracez`.
///
/// Cost model:
///  - disabled (default): one relaxed atomic load per span site, no
///    allocation, no thread registration;
///  - enabled: two steady_clock reads plus one uncontended mutex-guarded
///    ring write per span;
///  - compiled out (`-DSNOR_TRACE_COMPILED=0`): `SNOR_TRACE_SPAN` expands
///    to nothing.
///
/// Runtime switch: `SNOR_TRACE` environment variable (see
/// `InitTraceFromEnv`). `SNOR_TRACE=trace.json` enables tracing and writes
/// the Chrome trace to `trace.json` at process exit; `SNOR_TRACE=1` uses
/// the default path `trace.json`; unset/empty/`0` keeps tracing off.
///
/// This header lives at the bottom of the dependency stack: it must not
/// include anything from util/ (util links against snor_obs).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/lock_rank.h"

#ifndef SNOR_TRACE_COMPILED
#define SNOR_TRACE_COMPILED 1
#endif

namespace snor::obs {

/// Span names longer than this are truncated when recorded.
inline constexpr std::size_t kTraceMaxNameLength = 47;

/// \brief One recorded span (or instant event) in trace order.
struct TraceEvent {
  char name[kTraceMaxNameLength + 1] = {};
  /// Microseconds since the recorder's enable() epoch.
  std::uint64_t start_us = 0;
  /// Span duration; 0 for instant events.
  std::uint64_t dur_us = 0;
  /// Request this span belongs to (0 = not request-scoped).
  std::uint64_t request_id = 0;
  /// Process-unique id of this span (0 for non-request-scoped spans).
  std::uint64_t span_id = 0;
  /// Span id of the enclosing span in the request's causal chain
  /// (0 = root of the request).
  std::uint64_t parent_span = 0;
  /// Small sequential id of the recording thread (see CurrentThreadId).
  std::int32_t tid = 0;
  /// Nesting depth at record time (outermost span = 0).
  std::int32_t depth = 0;
  /// True for point-in-time events (fault fires, markers).
  bool instant = false;
};

/// \brief Causal scope of one request: the request id plus the span id
/// the next recorded span should attach to. Copyable and cheap — it is
/// handed across threads inside `QueuedRequest` and installed on each
/// thread that works on the request.
struct TraceContext {
  /// 0 means "no request scope"; real ids come from NextTraceRequestId.
  std::uint64_t request_id = 0;
  /// Span id new child spans attach to (0 = root of the request).
  std::uint64_t parent_span = 0;

  bool active() const { return request_id != 0; }
};

/// Process-unique, non-zero request id for a new TraceContext.
std::uint64_t NextTraceRequestId();

/// The calling thread's currently installed context (inactive when none).
TraceContext CurrentTraceContext();

/// \brief Installs `context` as the calling thread's trace context for
/// the scope, restoring the previous context on destruction.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// Small, stable, sequential id for the calling thread (1, 2, 3, ...).
/// Shared by the tracer and the logging prefix so traces and logs
/// correlate.
int CurrentThreadId();

namespace internal {
/// Global runtime switch, read on the span fast path.
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

/// True when tracing is currently enabled (relaxed load; safe anywhere).
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

/// \brief Process-wide trace recorder: a registry of per-thread ring
/// buffers plus the export logic.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Enables recording and resets the time epoch to "now".
  void Enable();

  /// Disables recording (already-buffered events are kept).
  void Disable();

  /// Drops every buffered event and clears counters. Thread buffers stay
  /// registered (live threads hold pointers into the registry).
  void Reset();

  /// Where `FlushTrace` writes the Chrome trace; set by InitTraceFromEnv.
  void set_output_path(std::string path);
  std::string output_path() const;

  /// Ring capacity (events per thread) used for buffers registered after
  /// the call. Default: 65536.
  void set_buffer_capacity(std::size_t events);

  /// Records one completed span for the calling thread. The trailing
  /// request/span/parent ids attach the span to a request's causal chain
  /// (all 0 for spans recorded outside any TraceContext).
  void RecordComplete(const char* name, std::uint64_t start_us,
                      std::uint64_t dur_us, std::int32_t depth,
                      std::uint64_t request_id = 0, std::uint64_t span_id = 0,
                      std::uint64_t parent_span = 0);

  /// Records a point-in-time event for the calling thread, tagged with
  /// the thread's current TraceContext when one is installed.
  void RecordInstant(const char* name);

  /// Microseconds since the last Enable().
  std::uint64_t NowMicros() const;

  /// Number of threads that have registered a buffer.
  std::size_t thread_count() const;

  /// Events recorded since the last Reset/Enable (including overwritten).
  std::uint64_t recorded_count() const;

  /// Events lost to ring overwrite since the last Reset/Enable.
  std::uint64_t dropped_count() const;

  /// Copies every buffered event, grouped by thread in record order.
  std::vector<TraceEvent> Snapshot() const;

  /// Renders the buffered events as Chrome trace_event JSON.
  std::string ChromeTraceJson() const;

  /// Writes ChromeTraceJson() to `path`; false on IO failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct ThreadBuffer;

  TraceRecorder() = default;

  ThreadBuffer* BufferForThisThread();
  void Push(const TraceEvent& event);

  mutable RankedMutex registry_mutex_{LockRank::kTraceRegistry};
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // GUARDED_BY(registry_mutex_)
  std::string output_path_;  // GUARDED_BY(registry_mutex_)
  std::size_t buffer_capacity_ = 65536;  // GUARDED_BY(registry_mutex_)
  std::atomic<std::int64_t> epoch_us_{0};
  std::atomic<std::uint64_t> recorded_{0};
};

/// Parses the `SNOR_TRACE` environment variable once: non-empty and not
/// "0" enables tracing ("1" = default path `trace.json`, anything else is
/// the output path) and registers an at-exit `FlushTrace`. Safe to call
/// from multiple places; only the first call does work.
void InitTraceFromEnv();

/// Writes the trace to the configured output path when tracing is enabled
/// and a path is set. Returns true when a file was written.
bool FlushTrace();

/// \brief RAII scoped span. Constructed against a *string literal* (the
/// pointer must outlive the span); records on destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
#if SNOR_TRACE_COMPILED
    if (TraceEnabled()) Begin(name);
#endif
  }

  ~ScopedSpan() {
    if (active_) End();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void Begin(const char* name);
  void End();

  const char* name_ = nullptr;
  std::uint64_t start_us_ = 0;
  std::uint64_t request_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_span_ = 0;
  std::int32_t depth_ = 0;
  bool active_ = false;
};

/// \brief Installs a TraceContext and opens a span under it in one RAII
/// object (the `SNOR_TRACE_SPAN_CTX` macro). Member order matters: the
/// context must be installed before the span begins.
class ScopedContextSpan {
 public:
  ScopedContextSpan(const char* name, const TraceContext& context)
      : context_(context), span_(name) {}

  ScopedContextSpan(const ScopedContextSpan&) = delete;
  ScopedContextSpan& operator=(const ScopedContextSpan&) = delete;

 private:
  ScopedTraceContext context_;
  ScopedSpan span_;
};

/// \brief Tail-keep retention knobs (see RequestTraceStore).
struct RequestTraceOptions {
  /// Keep the full span tree of every errored request.
  bool keep_errors = true;
  /// Keep requests whose end-to-end latency reaches this threshold;
  /// <= 0 disables latency-triggered keeps.
  double latency_keep_threshold_us = 0.0;
  /// Additionally keep every Nth healthy request (head sampling);
  /// 0 disables sampling.
  std::uint64_t sample_every = 0;
  /// Ring of kept traces (oldest evicted first).
  std::size_t max_kept = 64;
  /// Span cap per in-flight request (overflow spans are counted, not
  /// buffered).
  std::size_t max_spans_per_request = 256;
  /// Cap on concurrently buffered (unfinished) requests; the oldest
  /// pending request is evicted past this.
  std::size_t max_pending = 1024;
};

/// \brief One retained request trace.
struct RequestTrace {
  std::uint64_t request_id = 0;
  bool error = false;
  bool deadline_exceeded = false;
  /// True when kept by 1-in-N sampling rather than the tail policy.
  bool sampled = false;
  double latency_us = 0.0;
  std::vector<TraceEvent> spans;
};

/// \brief Per-request span buffer with tail-keep retention.
///
/// While enabled, every span recorded under an active TraceContext is
/// also copied into the request's pending buffer. `Finish` then either
/// promotes the buffer into the bounded ring of kept traces (errors,
/// slow requests, and a 1-in-N sample) or discards it. All methods are
/// thread-safe; `Offer` is a no-op (one relaxed atomic load) while
/// disabled.
class RequestTraceStore {
 public:
  static RequestTraceStore& Global();

  RequestTraceStore() = default;
  RequestTraceStore(const RequestTraceStore&) = delete;
  RequestTraceStore& operator=(const RequestTraceStore&) = delete;

  /// Enables tail-keep collection (and span recording itself: the
  /// recorder is enabled too, since spans are the raw material).
  void Enable(const RequestTraceOptions& options = {});

  /// Stops collecting; already-kept traces remain readable.
  void Disable();

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Buffers one request-scoped span (called by the recorder).
  void Offer(const TraceEvent& event);

  /// Closes out a request: keep or drop its buffered spans per the
  /// tail-keep policy. Safe to call for ids that never recorded a span.
  void Finish(std::uint64_t request_id, bool error, bool deadline_exceeded,
              double latency_us);

  /// \brief Monotonic accounting since the last Enable/Reset.
  struct Stats {
    std::uint64_t finished = 0;
    std::uint64_t kept = 0;
    /// Finished requests whose spans were discarded (healthy + unsampled).
    std::uint64_t dropped = 0;
    /// Spans not buffered because a request hit max_spans_per_request.
    std::uint64_t span_overflow = 0;
    /// Pending requests evicted past max_pending before finishing.
    std::uint64_t evicted = 0;
  };
  Stats stats() const;

  /// Copies the kept traces, oldest first.
  std::vector<RequestTrace> Kept() const;

  /// Kept traces + stats as a JSON object (the `/tracez` payload).
  std::string TracezJson() const;

  /// Drops kept traces, pending buffers, and counters (options persist).
  void Reset();

 private:
  void KeepLocked(RequestTrace trace);

  mutable RankedMutex mutex_{LockRank::kRequestTraceStore};
  RequestTraceOptions options_;  // GUARDED_BY(mutex_)
  std::map<std::uint64_t, std::vector<TraceEvent>>
      pending_;  // GUARDED_BY(mutex_)
  std::deque<RequestTrace> kept_;  // GUARDED_BY(mutex_)
  Stats stats_;  // GUARDED_BY(mutex_)
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> sample_counter_{0};
};

/// Records a point-in-time event (e.g. a fault fire) when enabled.
inline void TraceInstant(const char* name) {
#if SNOR_TRACE_COMPILED
  if (TraceEnabled()) TraceRecorder::Global().RecordInstant(name);
#else
  (void)name;
#endif
}

}  // namespace snor::obs

#define SNOR_OBS_CONCAT_INNER(a, b) a##b
#define SNOR_OBS_CONCAT(a, b) SNOR_OBS_CONCAT_INNER(a, b)

#if SNOR_TRACE_COMPILED
/// Opens a scoped trace span named `name` (a `layer.stage.detail` string
/// literal) that closes at the end of the enclosing scope.
#define SNOR_TRACE_SPAN(name) \
  ::snor::obs::ScopedSpan SNOR_OBS_CONCAT(snor_trace_span_, __COUNTER__)(name)
/// Installs `ctx` (a TraceContext) as the thread's request scope and
/// opens a span named `name` under it, both closing with the scope.
#define SNOR_TRACE_SPAN_CTX(name, ctx)                             \
  ::snor::obs::ScopedContextSpan SNOR_OBS_CONCAT(snor_trace_ctx_, \
                                                 __COUNTER__)(name, ctx)
#else
#define SNOR_TRACE_SPAN(name) static_cast<void>(0)
#define SNOR_TRACE_SPAN_CTX(name, ctx) static_cast<void>(0)
#endif

#endif  // SNOR_OBS_TRACE_H_
