#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"

namespace snor::obs {
namespace {

std::int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread span nesting depth (outermost span = depth 0).
thread_local std::int32_t tls_depth = 0;

/// Per-thread request scope; inactive (request_id 0) by default.
thread_local TraceContext tls_context;

/// Process-unique, non-zero id for a request-scoped span.
std::uint64_t NextSpanId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void CopyName(const char* name, char (&dest)[kTraceMaxNameLength + 1]) {
  std::size_t n = 0;
  if (name != nullptr) {
    n = std::strlen(name);
    if (n > kTraceMaxNameLength) {
      n = kTraceMaxNameLength;
      static Counter& truncated =
          MetricsRegistry::Global().counter("obs.trace.truncated_names");
      truncated.Increment();
    }
    std::memcpy(dest, name, n);
  }
  dest[n] = '\0';
}

}  // namespace

std::uint64_t NextTraceRequestId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

TraceContext CurrentTraceContext() { return tls_context; }

ScopedTraceContext::ScopedTraceContext(const TraceContext& context)
    : saved_(tls_context) {
  tls_context = context;
}

ScopedTraceContext::~ScopedTraceContext() { tls_context = saved_; }

namespace internal {
std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

int CurrentThreadId() {
  static std::atomic<int> next_id{1};
  thread_local const int id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// \brief One thread's event ring. Single writer (the owning thread);
/// the mutex only contends with an exporting/resetting reader.
struct TraceRecorder::ThreadBuffer {
  ThreadBuffer(int tid_in, std::size_t capacity_in)
      : tid(tid_in), capacity(capacity_in == 0 ? 1 : capacity_in) {}

  mutable RankedMutex mutex{LockRank::kTraceThreadBuffer};
  const int tid;
  const std::size_t capacity;
  std::vector<TraceEvent> ring;  // Grows lazily up to `capacity`.
  std::size_t head = 0;          // Oldest slot once the ring is full.
  std::uint64_t overwritten = 0;

  void Push(const TraceEvent& event) {
    std::lock_guard<RankedMutex> lock(mutex);
    if (ring.size() < capacity) {
      ring.push_back(event);
    } else {
      ring[head] = event;
      head = (head + 1) % capacity;
      ++overwritten;
    }
  }

  void AppendInOrder(std::vector<TraceEvent>* out) const {
    std::lock_guard<RankedMutex> lock(mutex);
    // Oldest-first: once wrapped, the oldest live event sits at `head`.
    for (std::size_t i = 0; i < ring.size(); ++i) {
      out->push_back(ring[(head + i) % ring.size()]);
    }
  }

  void Clear() {
    std::lock_guard<RankedMutex> lock(mutex);
    ring.clear();
    head = 0;
    overwritten = 0;
  }
};

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::Enable() {
  epoch_us_.store(SteadyNowMicros(), std::memory_order_relaxed);
  internal::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Disable() {
  internal::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void TraceRecorder::Reset() {
  std::lock_guard<RankedMutex> lock(registry_mutex_);
  for (const auto& buffer : buffers_) buffer->Clear();
  recorded_.store(0, std::memory_order_relaxed);
}

void TraceRecorder::set_output_path(std::string path) {
  std::lock_guard<RankedMutex> lock(registry_mutex_);
  output_path_ = std::move(path);
}

std::string TraceRecorder::output_path() const {
  std::lock_guard<RankedMutex> lock(registry_mutex_);
  return output_path_;
}

void TraceRecorder::set_buffer_capacity(std::size_t events) {
  std::lock_guard<RankedMutex> lock(registry_mutex_);
  buffer_capacity_ = events == 0 ? 1 : events;
}

std::uint64_t TraceRecorder::NowMicros() const {
  const std::int64_t now = SteadyNowMicros();
  const std::int64_t epoch = epoch_us_.load(std::memory_order_relaxed);
  return now > epoch ? static_cast<std::uint64_t>(now - epoch) : 0;
}

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  // Buffers are owned by the recorder and never removed, so the cached
  // pointer stays valid for the thread's lifetime.
  thread_local ThreadBuffer* tls_buffer = nullptr;
  if (tls_buffer != nullptr) return tls_buffer;
  std::lock_guard<RankedMutex> lock(registry_mutex_);
  buffers_.push_back(
      std::make_unique<ThreadBuffer>(CurrentThreadId(), buffer_capacity_));
  tls_buffer = buffers_.back().get();
  return tls_buffer;
}

void TraceRecorder::Push(const TraceEvent& event) {
  BufferForThisThread()->Push(event);
  recorded_.fetch_add(1, std::memory_order_relaxed);
  if (event.request_id != 0) RequestTraceStore::Global().Offer(event);
}

void TraceRecorder::RecordComplete(const char* name, std::uint64_t start_us,
                                   std::uint64_t dur_us, std::int32_t depth,
                                   std::uint64_t request_id,
                                   std::uint64_t span_id,
                                   std::uint64_t parent_span) {
  TraceEvent event;
  CopyName(name, event.name);
  event.start_us = start_us;
  event.dur_us = dur_us;
  event.request_id = request_id;
  event.span_id = span_id;
  event.parent_span = parent_span;
  event.tid = CurrentThreadId();
  event.depth = depth;
  Push(event);
}

void TraceRecorder::RecordInstant(const char* name) {
  TraceEvent event;
  CopyName(name, event.name);
  event.start_us = NowMicros();
  event.request_id = tls_context.request_id;
  event.parent_span = tls_context.parent_span;
  event.tid = CurrentThreadId();
  event.depth = tls_depth;
  event.instant = true;
  Push(event);
}

std::size_t TraceRecorder::thread_count() const {
  std::lock_guard<RankedMutex> lock(registry_mutex_);
  return buffers_.size();
}

std::uint64_t TraceRecorder::recorded_count() const {
  return recorded_.load(std::memory_order_relaxed);
}

std::uint64_t TraceRecorder::dropped_count() const {
  std::lock_guard<RankedMutex> lock(registry_mutex_);
  std::uint64_t dropped = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<RankedMutex> buffer_lock(buffer->mutex);
    dropped += buffer->overwritten;
  }
  return dropped;
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::lock_guard<RankedMutex> lock(registry_mutex_);
  std::vector<TraceEvent> events;
  for (const auto& buffer : buffers_) buffer->AppendInOrder(&events);
  return events;
}

std::string TraceRecorder::ChromeTraceJson() const {
  const std::vector<TraceEvent> events = Snapshot();
  JsonWriter json;
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();
  // Thread-name metadata so Perfetto labels the tracks.
  std::vector<std::int32_t> tids;
  for (const TraceEvent& e : events) {
    bool seen = false;
    for (std::int32_t t : tids) seen = seen || t == e.tid;
    if (!seen) tids.push_back(e.tid);
  }
  for (std::int32_t tid : tids) {
    json.BeginObject();
    json.Key("name");
    json.String("thread_name");
    json.Key("ph");
    json.String("M");
    json.Key("pid");
    json.Int(1);
    json.Key("tid");
    json.Int(tid);
    json.Key("args");
    json.BeginObject();
    json.Key("name");
    char label[32];
    std::snprintf(label, sizeof(label), "snor-thread-%d", tid);
    json.String(label);
    json.EndObject();
    json.EndObject();
  }
  for (const TraceEvent& e : events) {
    json.BeginObject();
    json.Key("name");
    json.String(e.name);
    json.Key("cat");
    json.String("snor");
    json.Key("ph");
    json.String(e.instant ? "i" : "X");
    json.Key("pid");
    json.Int(1);
    json.Key("tid");
    json.Int(e.tid);
    json.Key("ts");
    json.Int(static_cast<std::int64_t>(e.start_us));
    if (e.instant) {
      json.Key("s");
      json.String("t");
    } else {
      json.Key("dur");
      json.Int(static_cast<std::int64_t>(e.dur_us));
    }
    json.Key("args");
    json.BeginObject();
    json.Key("depth");
    json.Int(e.depth);
    if (e.request_id != 0) {
      json.Key("request_id");
      json.Int(static_cast<std::int64_t>(e.request_id));
      json.Key("span_id");
      json.Int(static_cast<std::int64_t>(e.span_id));
      json.Key("parent_span");
      json.Int(static_cast<std::int64_t>(e.parent_span));
    }
    json.EndObject();
    json.EndObject();
  }
  // Flow events stitch each request's spans across threads into one
  // causal arrow chain in Perfetto: per request, "s" on the earliest
  // span, "t" steps, "f" on the latest, all sharing the request id.
  std::map<std::uint64_t, std::vector<const TraceEvent*>> by_request;
  for (const TraceEvent& e : events) {
    if (e.request_id != 0 && !e.instant) by_request[e.request_id].push_back(&e);
  }
  for (auto& [request_id, spans] : by_request) {
    if (spans.size() < 2) continue;  // No arrow to draw.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       return a->start_us < b->start_us;
                     });
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const TraceEvent& e = *spans[i];
      const bool first = i == 0;
      const bool last = i + 1 == spans.size();
      json.BeginObject();
      json.Key("name");
      json.String("obs.trace.flow");
      json.Key("cat");
      json.String("snor");
      json.Key("ph");
      json.String(first ? "s" : (last ? "f" : "t"));
      json.Key("id");
      json.Int(static_cast<std::int64_t>(request_id));
      json.Key("pid");
      json.Int(1);
      json.Key("tid");
      json.Int(e.tid);
      json.Key("ts");
      json.Int(static_cast<std::int64_t>(e.start_us));
      if (!first) {
        // Bind to the enclosing slice rather than the next one.
        json.Key("bp");
        json.String("e");
      }
      json.EndObject();
    }
  }
  json.EndArray();
  json.Key("displayTimeUnit");
  json.String("ms");
  json.Key("otherData");
  json.BeginObject();
  json.Key("recorded");
  json.Int(static_cast<std::int64_t>(recorded_count()));
  json.Key("dropped");
  json.Int(static_cast<std::int64_t>(dropped_count()));
  json.EndObject();
  json.EndObject();
  return json.str();
}

bool TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::string json = ChromeTraceJson();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out << '\n';
  return static_cast<bool>(out);
}

namespace {

bool InitTraceFromEnvOnce() {
  const char* env = std::getenv("SNOR_TRACE");
  if (env == nullptr || env[0] == '\0' || std::string(env) == "0") {
    return false;
  }
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.set_output_path(std::string(env) == "1" ? "trace.json" : env);
  recorder.Enable();
  std::atexit([] { (void)FlushTrace(); });
  return true;
}

}  // namespace

void InitTraceFromEnv() {
  // Thread-safe one-shot via function-local static initialization.
  static const bool initialized = InitTraceFromEnvOnce();
  (void)initialized;
}

bool FlushTrace() {
  TraceRecorder& recorder = TraceRecorder::Global();
  if (!TraceEnabled()) return false;
  const std::string path = recorder.output_path();
  if (path.empty()) return false;
  const bool ok = recorder.WriteChromeTrace(path);
  if (!ok) {
    std::fprintf(stderr, "snor trace: failed to write %s\n", path.c_str());
  }
  return ok;
}

RequestTraceStore& RequestTraceStore::Global() {
  static RequestTraceStore store;
  return store;
}

void RequestTraceStore::Enable(const RequestTraceOptions& options) {
  {
    std::lock_guard<RankedMutex> lock(mutex_);
    options_ = options;
  }
  // Spans are the raw material of request traces, so collection implies
  // recording.
  TraceRecorder::Global().Enable();
  enabled_.store(true, std::memory_order_relaxed);
}

void RequestTraceStore::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void RequestTraceStore::Offer(const TraceEvent& event) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  if (event.request_id == 0) return;
  std::lock_guard<RankedMutex> lock(mutex_);
  auto it = pending_.find(event.request_id);
  if (it == pending_.end()) {
    if (pending_.size() >= options_.max_pending && !pending_.empty()) {
      // Request ids are monotonic, so begin() is the oldest request.
      pending_.erase(pending_.begin());
      ++stats_.evicted;
    }
    it = pending_.emplace(event.request_id, std::vector<TraceEvent>()).first;
  }
  if (it->second.size() >= options_.max_spans_per_request) {
    ++stats_.span_overflow;
    return;
  }
  it->second.push_back(event);
}

void RequestTraceStore::Finish(std::uint64_t request_id, bool error,
                               bool deadline_exceeded, double latency_us) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  std::lock_guard<RankedMutex> lock(mutex_);
  ++stats_.finished;
  std::vector<TraceEvent> spans;
  auto it = pending_.find(request_id);
  if (it != pending_.end()) {
    spans = std::move(it->second);
    pending_.erase(it);
  }
  bool keep = false;
  bool sampled = false;
  if ((error || deadline_exceeded) && options_.keep_errors) {
    keep = true;
  } else if (options_.latency_keep_threshold_us > 0.0 &&
             latency_us >= options_.latency_keep_threshold_us) {
    keep = true;
  } else if (options_.sample_every > 0) {
    const std::uint64_t n =
        sample_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % options_.sample_every == 0) {
      keep = true;
      sampled = true;
    }
  }
  if (!keep || options_.max_kept == 0) {
    ++stats_.dropped;
    return;
  }
  RequestTrace trace;
  trace.request_id = request_id;
  trace.error = error;
  trace.deadline_exceeded = deadline_exceeded;
  trace.sampled = sampled;
  trace.latency_us = latency_us;
  trace.spans = std::move(spans);
  KeepLocked(std::move(trace));
}

void RequestTraceStore::KeepLocked(RequestTrace trace) {
  while (kept_.size() >= options_.max_kept && !kept_.empty()) {
    kept_.pop_front();
  }
  kept_.push_back(std::move(trace));
  ++stats_.kept;
}

RequestTraceStore::Stats RequestTraceStore::stats() const {
  std::lock_guard<RankedMutex> lock(mutex_);
  return stats_;
}

std::vector<RequestTrace> RequestTraceStore::Kept() const {
  std::lock_guard<RankedMutex> lock(mutex_);
  return std::vector<RequestTrace>(kept_.begin(), kept_.end());
}

std::string RequestTraceStore::TracezJson() const {
  std::vector<RequestTrace> kept;
  Stats stats;
  {
    std::lock_guard<RankedMutex> lock(mutex_);
    kept.assign(kept_.begin(), kept_.end());
    stats = stats_;
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("finished");
  json.Int(static_cast<std::int64_t>(stats.finished));
  json.Key("kept");
  json.Int(static_cast<std::int64_t>(stats.kept));
  json.Key("dropped");
  json.Int(static_cast<std::int64_t>(stats.dropped));
  json.Key("span_overflow");
  json.Int(static_cast<std::int64_t>(stats.span_overflow));
  json.Key("evicted");
  json.Int(static_cast<std::int64_t>(stats.evicted));
  json.Key("traces");
  json.BeginArray();
  for (const RequestTrace& trace : kept) {
    json.BeginObject();
    json.Key("request_id");
    json.Int(static_cast<std::int64_t>(trace.request_id));
    json.Key("error");
    json.Bool(trace.error);
    json.Key("deadline_exceeded");
    json.Bool(trace.deadline_exceeded);
    json.Key("sampled");
    json.Bool(trace.sampled);
    json.Key("latency_us");
    json.Number(trace.latency_us);
    json.Key("spans");
    json.BeginArray();
    for (const TraceEvent& e : trace.spans) {
      json.BeginObject();
      json.Key("name");
      json.String(e.name);
      json.Key("ts");
      json.Int(static_cast<std::int64_t>(e.start_us));
      json.Key("dur");
      json.Int(static_cast<std::int64_t>(e.dur_us));
      json.Key("span_id");
      json.Int(static_cast<std::int64_t>(e.span_id));
      json.Key("parent_span");
      json.Int(static_cast<std::int64_t>(e.parent_span));
      json.Key("tid");
      json.Int(e.tid);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

void RequestTraceStore::Reset() {
  std::lock_guard<RankedMutex> lock(mutex_);
  pending_.clear();
  kept_.clear();
  stats_ = Stats{};
  sample_counter_.store(0, std::memory_order_relaxed);
}

void ScopedSpan::Begin(const char* name) {
  name_ = name;
  start_us_ = TraceRecorder::Global().NowMicros();
  depth_ = tls_depth++;
  if (tls_context.active()) {
    // Attach to the request's causal chain and make nested spans on this
    // thread children of this span.
    request_id_ = tls_context.request_id;
    parent_span_ = tls_context.parent_span;
    span_id_ = NextSpanId();
    tls_context.parent_span = span_id_;
  }
  active_ = true;
}

void ScopedSpan::End() {
  --tls_depth;
  if (request_id_ != 0 && tls_context.request_id == request_id_) {
    tls_context.parent_span = parent_span_;
  }
  // Tracing may have been disabled mid-span; drop the event then (the
  // depth counter still had to be rewound above).
  if (!TraceEnabled()) return;
  TraceRecorder& recorder = TraceRecorder::Global();
  const std::uint64_t end_us = recorder.NowMicros();
  const std::uint64_t dur = end_us > start_us_ ? end_us - start_us_ : 0;
  recorder.RecordComplete(name_, start_us_, dur, depth_, request_id_, span_id_,
                          parent_span_);
}

}  // namespace snor::obs
