#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace snor::serve {
namespace {

double MillisBetween(const std::chrono::steady_clock::time_point& from,
                     const std::chrono::steady_clock::time_point& to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// A spec with no degraded engine cannot trip: pin the breaker closed so
/// the open state (which would route to a null engine) is unreachable.
CircuitBreakerOptions EffectiveBreakerOptions(
    const CircuitBreakerOptions& options, bool has_degraded_engine) {
  CircuitBreakerOptions adjusted = options;
  if (!has_degraded_engine) adjusted.enabled = false;
  return adjusted;
}

}  // namespace

CircuitBreaker::CircuitBreaker(const CircuitBreakerOptions& options)
    : options_(options),
      window_(static_cast<std::size_t>(std::max(1, options.window)), 0) {}

CircuitBreaker::State CircuitBreaker::Evaluate() {
  if (!options_.enabled) return State::kClosed;
  if (state_ == State::kOpen &&
      since_open_.ElapsedMillis() >= options_.cooldown_ms) {
    state_ = State::kHalfOpen;
  }
  return state_;
}

void CircuitBreaker::Record(bool failure) {
  if (samples_ < window_.size()) {
    ++samples_;
  } else if (window_[next_] != 0) {
    --failures_;
  }
  window_[next_] = failure ? 1 : 0;
  if (failure) ++failures_;
  next_ = (next_ + 1) % window_.size();
}

void CircuitBreaker::Open() {
  state_ = State::kOpen;
  ++trips_;
  since_open_.Reset();
}

void CircuitBreaker::RecordPrimary(std::uint64_t successes,
                                   std::uint64_t failures) {
  if (!options_.enabled) return;
  if (state_ == State::kHalfOpen) {
    // The batch was the probe: any failure re-opens for another
    // cool-down, an all-success probe closes and forgets the history.
    if (failures > 0) {
      Open();
    } else if (successes > 0) {
      state_ = State::kClosed;
      std::fill(window_.begin(), window_.end(), 0);
      samples_ = 0;
      failures_ = 0;
      next_ = 0;
    }
    return;
  }
  if (state_ == State::kOpen) return;
  // Successes first so a failure burst larger than the window still
  // leaves the window failure-saturated.
  for (std::uint64_t i = 0; i < successes; ++i) Record(false);
  for (std::uint64_t i = 0; i < failures; ++i) Record(true);
  const auto min_samples =
      static_cast<std::size_t>(std::max(1, options_.min_samples));
  if (samples_ >= min_samples &&
      static_cast<double>(failures_) >=
          options_.failure_ratio * static_cast<double>(samples_)) {
    Open();
  }
}

Result<std::unique_ptr<RecognitionService>> RecognitionService::Create(
    const ApproachSpec& spec, const std::vector<ImageFeatures>& gallery,
    const ServiceOptions& options) {
  // One pack serves both engines.
  const auto bank = std::make_shared<const FeatureBank>(
      PackFeatureBank(gallery));
  std::unique_ptr<BatchEngine> degraded;
  if (options.breaker.enabled &&
      (spec.kind == ApproachSpec::Kind::kHybrid ||
       spec.kind == ApproachSpec::Kind::kShape)) {
    ApproachSpec degraded_spec;
    degraded_spec.kind = ApproachSpec::Kind::kColor;
    degraded_spec.color = spec.color;
    auto single = BatchEngine::CreateFromBank(
        degraded_spec, bank, options.engine, options.baseline_seed);
    // A gallery without a usable colour bank simply has no degradation
    // path; the breaker is then pinned closed in the constructor.
    if (single.ok()) degraded = std::move(single).MoveValue();
  }
  SNOR_ASSIGN_OR_RETURN(
      std::unique_ptr<BatchEngine> primary,
      BatchEngine::CreateFromBank(spec, bank, options.engine,
                                  options.baseline_seed));
  // NOLINTNEXTLINE(raw-new-delete): private ctor, immediately owned.
  return std::unique_ptr<RecognitionService>(new RecognitionService(
      spec, std::move(primary), std::move(degraded), bank->hist_bins,
      options));
}

RecognitionService::RecognitionService(const ApproachSpec& spec,
                                       std::unique_ptr<BatchEngine> primary,
                                       std::unique_ptr<BatchEngine> degraded,
                                       std::size_t hist_bins,
                                       const ServiceOptions& options)
    : spec_(spec),
      options_(options),
      hist_bins_(hist_bins),
      primary_(std::move(primary)),
      degraded_(std::move(degraded)),
      queue_(options.queue),
      breaker_(EffectiveBreakerOptions(options.breaker,
                                       degraded_ != nullptr)),
      slo_(options.slo) {
  dispatcher_ = std::thread(&RecognitionService::DispatcherLoop, this);
}

RecognitionService::~RecognitionService() { Shutdown(); }

void RecognitionService::Shutdown() {
  std::call_once(shutdown_once_, [&] {
    stopping_.store(true, std::memory_order_relaxed);
    queue_.Close();
    if (dispatcher_.joinable()) dispatcher_.join();
  });
}

std::future<Result<ServiceReply>> RecognitionService::Submit(
    const ImageFeatures* query) {
  return Submit(query, options_.default_deadline_ms);
}

std::future<Result<ServiceReply>> RecognitionService::Submit(
    const ImageFeatures* query, double deadline_ms) {
  static obs::Counter& requests =
      obs::MetricsRegistry::Global().counter("serve.service.requests");
  static obs::Counter& rejected_counter =
      obs::MetricsRegistry::Global().counter("serve.service.rejected");
  requests.Increment();
  submitted_.fetch_add(1, std::memory_order_relaxed);

  // Mint the request's causal scope and record its root span on this
  // producer thread. The span is closed (and so offered to the tail-keep
  // store) *before* the request becomes poppable: otherwise a fast
  // dispatcher could finish the request before its root span lands.
  obs::TraceContext root;
  if (obs::TraceEnabled()) root.request_id = obs::NextTraceRequestId();

  QueuedRequest request;
  {
    SNOR_TRACE_SPAN_CTX("serve.request.submit", root);
    request.query = query;
    request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    // Dispatcher/worker spans chain under the submit span.
    request.trace = obs::CurrentTraceContext();
    request.enqueue_time = std::chrono::steady_clock::now();
    if (deadline_ms > 0.0) {
      request.has_deadline = true;
      request.deadline =
          request.enqueue_time +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(deadline_ms));
    }
  }
  std::future<Result<ServiceReply>> future = request.reply.get_future();
  if (query->histogram.num_bins() != hist_bins_) {
    // No engine can score this query (the degraded colour engine reads
    // the histogram even when the primary does not): answer it here.
    Answer(request,
           Result<ServiceReply>(Status::InvalidArgument(StrFormat(
               "query histogram has %zu bins, the gallery's have %zu",
               query->histogram.num_bins(), hist_bins_))));
    return future;
  }
  const Status admitted = queue_.Enqueue(request);
  if (!admitted.ok()) {
    // Rejected requests are answered right here, exactly once: the
    // promise was not consumed by the queue.
    if (stopping_.load(std::memory_order_relaxed)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      rejected_counter.Increment();
    } else {
      shed_.fetch_add(1, std::memory_order_relaxed);
    }
    request.reply.set_value(Result<ServiceReply>(admitted));
    // A shed/rejected request is an unavailability event for the SLO and
    // an errored request for tail-keep.
    slo_.Record(false, 0.0);
    if (root.request_id != 0) {
      obs::RequestTraceStore::Global().Finish(root.request_id,
                                              /*error=*/true,
                                              /*deadline_exceeded=*/false,
                                              /*latency_us=*/0.0);
    }
  }
  return future;
}

Result<ServiceReply> RecognitionService::Classify(
    const ImageFeatures& query) {
  return Submit(&query).get();
}

ServiceStats RecognitionService::stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.ok = ok_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.timed_out = timed_out_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.degraded = degraded_answers_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.breaker_trips = breaker_trips_.load(std::memory_order_relaxed);
  stats.breaker_state = breaker_state_.load(std::memory_order_relaxed);
  return stats;
}

void RecognitionService::DispatcherLoop() {
  const std::size_t max_batch =
      static_cast<std::size_t>(std::max(1, options_.max_batch));
  while (true) {
    std::vector<QueuedRequest> batch = queue_.PopBatch(max_batch);
    if (batch.empty()) break;  // Closed and fully drained.
    DispatchBatch(std::move(batch));
  }
}

void RecognitionService::Answer(QueuedRequest& request,
                                Result<ServiceReply> result) {
  static obs::Counter& ok_counter =
      obs::MetricsRegistry::Global().counter("serve.service.ok");
  static obs::Counter& timeout_counter =
      obs::MetricsRegistry::Global().counter("serve.service.timeouts");
  static obs::Counter& error_counter =
      obs::MetricsRegistry::Global().counter("serve.service.errors");
  static obs::Counter& degraded_counter =
      obs::MetricsRegistry::Global().counter("serve.service.degraded");
  static obs::Histogram& latency_us =
      obs::MetricsRegistry::Global().histogram("serve.service.latency_us");
  const double elapsed_us =
      MillisBetween(request.enqueue_time, std::chrono::steady_clock::now()) *
      1e3;
  latency_us.Record(elapsed_us);
  const bool is_ok = result.ok();
  const bool is_deadline =
      !is_ok && result.status().code() == StatusCode::kDeadlineExceeded;
  if (is_ok) {
    ok_.fetch_add(1, std::memory_order_relaxed);
    ok_counter.Increment();
    if (result.value().degraded) {
      degraded_answers_.fetch_add(1, std::memory_order_relaxed);
      degraded_counter.Increment();
    }
  } else if (is_deadline) {
    timed_out_.fetch_add(1, std::memory_order_relaxed);
    timeout_counter.Increment();
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
    error_counter.Increment();
  }
  {
    // The reply is fulfilled inside the request's final span so the
    // causal chain visibly ends on the dispatcher thread.
    SNOR_TRACE_SPAN_CTX("serve.request.answer", request.trace);
    request.reply.set_value(std::move(result));
  }
  slo_.Record(is_ok, elapsed_us);
  if (request.trace.active()) {
    // All of the request's spans have been recorded by now (worker spans
    // complete before ClassifyBatch returns), so the tail-keep decision
    // sees the full tree.
    obs::RequestTraceStore::Global().Finish(request.trace.request_id,
                                            !is_ok && !is_deadline,
                                            is_deadline, elapsed_us);
  }
}

void RecognitionService::DispatchBatch(std::vector<QueuedRequest> batch) {
  SNOR_TRACE_SPAN("serve.service.dispatch");
  static obs::Histogram& wait_us =
      obs::MetricsRegistry::Global().histogram("serve.queue.wait_us");
  static obs::Histogram& batch_size =
      obs::MetricsRegistry::Global().histogram("serve.service.batch_size");
  static obs::Gauge& breaker_gauge =
      obs::MetricsRegistry::Global().gauge("serve.service.breaker_state");
  static obs::Counter& trip_counter =
      obs::MetricsRegistry::Global().counter("serve.service.breaker_trips");

  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_size.Record(static_cast<double>(batch.size()));

  // Stage 1: expire requests whose deadline passed while queued.
  const auto arrival = std::chrono::steady_clock::now();
  std::vector<QueuedRequest*> live;
  live.reserve(batch.size());
  for (QueuedRequest& request : batch) {
    // A zero-length marker span on the dispatcher thread: the causal
    // chain's "picked up from the queue" hop.
    { SNOR_TRACE_SPAN_CTX("serve.request.dequeue", request.trace); }
    const double waited_ms = MillisBetween(request.enqueue_time, arrival);
    wait_us.Record(waited_ms * 1e3);
    if (request.has_deadline && arrival >= request.deadline) {
      Answer(request, Result<ServiceReply>(Status::DeadlineExceeded(
                          StrFormat("request %llu expired in queue after "
                                    "%.2fms",
                                    static_cast<unsigned long long>(request.id),
                                    waited_ms))));
      continue;
    }
    live.push_back(&request);
  }

  // Stage 2: transient per-request ingest faults, retried with jittered
  // backoff inside the remaining deadline budget. Exhaustion answers the
  // one request instead of poisoning the batch.
  std::vector<QueuedRequest*> ready;
  ready.reserve(live.size());
  std::uint64_t ingest_failures = 0;
  for (QueuedRequest* request : live) {
    RetryOptions retry = options_.retry;
    retry.jitter_seed = options_.retry.jitter_seed ^ request->id;
    if (request->has_deadline) {
      const double remaining_ms =
          MillisBetween(std::chrono::steady_clock::now(), request->deadline);
      if (remaining_ms <= 0.0) {
        Answer(*request,
               Result<ServiceReply>(Status::DeadlineExceeded(StrFormat(
                   "request %llu expired before ingest",
                   static_cast<unsigned long long>(request->id)))));
        continue;
      }
      retry.deadline_ms = retry.deadline_ms > 0.0
                              ? std::min(retry.deadline_ms, remaining_ms)
                              : remaining_ms;
    }
    Status ingest = Status::OK();
    {
      // Closed before any Answer so the span precedes the tail-keep
      // decision for this request.
      SNOR_TRACE_SPAN_CTX("serve.request.ingest", request->trace);
      ingest = RetryWithBackoff(retry, [] {
        return InjectFault(FaultPoint::kIoRead, "service request ingest");
      });
    }
    if (!ingest.ok()) {
      if (ingest.code() != StatusCode::kDeadlineExceeded) ++ingest_failures;
      Answer(*request, Result<ServiceReply>(ingest));
      continue;
    }
    ready.push_back(request);
  }

  // Stage 3: classify the survivors on the engine the breaker selects.
  const CircuitBreaker::State state = breaker_.Evaluate();
  const bool degraded_mode =
      state == CircuitBreaker::State::kOpen && degraded_ != nullptr;
  BatchEngine* engine = degraded_mode ? degraded_.get() : primary_.get();

  std::vector<ObjectClass> labels;
  Status batch_status = Status::OK();
  const std::uint64_t degradation_before = engine->degradation().total();
  if (!ready.empty()) {
    SNOR_TRACE_SPAN("serve.service.batch");
    std::vector<const ImageFeatures*> queries;
    std::vector<obs::TraceContext> contexts;
    queries.reserve(ready.size());
    contexts.reserve(ready.size());
    for (const QueuedRequest* request : ready) {
      queries.push_back(request->query);
      contexts.push_back(request->trace);
    }
    try {
      labels = engine->ClassifyBatch(queries, contexts);
    } catch (const std::exception& e) {
      batch_status = Status::Internal(
          std::string("batch classification failed: ") + e.what());
    } catch (...) {
      batch_status = Status::Internal("batch classification failed");
    }
  }
  const std::uint64_t modality_failures =
      engine->degradation().total() - degradation_before;

  // Stage 4: answer. A computed label whose deadline has meanwhile
  // passed is withheld — the service never serves a stale result.
  const auto done = std::chrono::steady_clock::now();
  std::uint64_t classified = 0;
  for (std::size_t i = 0; i < ready.size(); ++i) {
    QueuedRequest& request = *ready[i];
    if (!batch_status.ok()) {
      Answer(request, Result<ServiceReply>(batch_status));
      continue;
    }
    if (request.has_deadline && done >= request.deadline) {
      Answer(request,
             Result<ServiceReply>(Status::DeadlineExceeded(StrFormat(
                 "request %llu went stale during classification",
                 static_cast<unsigned long long>(request.id)))));
      continue;
    }
    ServiceReply reply;
    reply.label = labels[i];
    reply.degraded = degraded_mode;
    reply.queue_wait_ms = MillisBetween(request.enqueue_time, arrival);
    Answer(request, Result<ServiceReply>(reply));
    ++classified;
  }

  // Stage 5: breaker bookkeeping (primary path only — the degraded
  // engine's outcomes must not close the breaker early; only the
  // half-open probe on the primary can do that).
  if (!degraded_mode) {
    std::uint64_t failures = ingest_failures + modality_failures;
    std::uint64_t successes = 0;
    if (!batch_status.ok()) {
      failures += ready.size();
    } else if (classified >= modality_failures) {
      successes = classified - modality_failures;
    }
    breaker_.RecordPrimary(successes, failures);
  }
  const CircuitBreaker::State after = breaker_.Evaluate();
  breaker_state_.store(static_cast<int>(after), std::memory_order_relaxed);
  breaker_gauge.Set(static_cast<double>(static_cast<int>(after)));
  const std::uint64_t trips = breaker_.trips();
  const std::uint64_t seen =
      breaker_trips_.exchange(trips, std::memory_order_relaxed);
  if (trips > seen) trip_counter.Increment(trips - seen);

  // Stage 6: surface the SLO state (one ring scan per batch, dispatcher
  // thread only).
  static obs::Gauge& slo_availability =
      obs::MetricsRegistry::Global().gauge("serve.slo.availability");
  static obs::Gauge& slo_latency_compliance =
      obs::MetricsRegistry::Global().gauge("serve.slo.latency_compliance");
  static obs::Gauge& slo_availability_burn =
      obs::MetricsRegistry::Global().gauge("serve.slo.availability_burn");
  static obs::Gauge& slo_latency_burn =
      obs::MetricsRegistry::Global().gauge("serve.slo.latency_burn");
  const obs::SloMonitor::Snapshot slo = slo_.snapshot();
  slo_availability.Set(slo.availability);
  slo_latency_compliance.Set(slo.latency_compliance);
  slo_availability_burn.Set(slo.worst_availability_burn);
  slo_latency_burn.Set(slo.worst_latency_burn);
}

namespace {

const char* BreakerStateName(int state) {
  switch (static_cast<CircuitBreaker::State>(state)) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

}  // namespace

std::string RecognitionService::StatusJson() const {
  const ServiceStats service_stats = stats();
  const RequestQueueStats q_stats = queue_stats();
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("status");
  json.String(stopping_.load(std::memory_order_relaxed) ? "stopping"
                                                        : "serving");
  json.Key("uptime_s");
  json.Number(uptime_s());
  json.Key("build");
  json.BeginObject();
  json.Key("compiler");
  json.String(__VERSION__);
  json.Key("compiled");
  json.String(__DATE__ " " __TIME__);
  json.EndObject();
  json.Key("approach");
  json.String(spec_.DisplayName());
  json.Key("match_mode");
  json.String(MatchModeName(options_.engine.match_mode));
  json.Key("stats");
  json.BeginObject();
  json.Key("submitted");
  json.Int(static_cast<std::int64_t>(service_stats.submitted));
  json.Key("ok");
  json.Int(static_cast<std::int64_t>(service_stats.ok));
  json.Key("shed");
  json.Int(static_cast<std::int64_t>(service_stats.shed));
  json.Key("timed_out");
  json.Int(static_cast<std::int64_t>(service_stats.timed_out));
  json.Key("failed");
  json.Int(static_cast<std::int64_t>(service_stats.failed));
  json.Key("rejected");
  json.Int(static_cast<std::int64_t>(service_stats.rejected));
  json.Key("degraded");
  json.Int(static_cast<std::int64_t>(service_stats.degraded));
  json.Key("batches");
  json.Int(static_cast<std::int64_t>(service_stats.batches));
  json.EndObject();
  json.Key("breaker");
  json.BeginObject();
  json.Key("state");
  json.String(BreakerStateName(service_stats.breaker_state));
  json.Key("trips");
  json.Int(static_cast<std::int64_t>(service_stats.breaker_trips));
  json.EndObject();
  json.Key("queue");
  json.BeginObject();
  json.Key("depth");
  json.Int(static_cast<std::int64_t>(queue_depth()));
  json.Key("capacity");
  json.Int(static_cast<std::int64_t>(options_.queue.capacity));
  json.Key("enqueued");
  json.Int(static_cast<std::int64_t>(q_stats.enqueued));
  json.Key("shed");
  json.Int(static_cast<std::int64_t>(q_stats.shed));
  json.Key("dequeued");
  json.Int(static_cast<std::int64_t>(q_stats.dequeued));
  json.EndObject();
  json.Key("slo");
  json.Raw(obs::SloSnapshotJson(slo_snapshot()));
  json.EndObject();
  return json.str();
}

void RegisterServiceIntrospection(obs::IntrospectServer& server,
                                  const RecognitionService& service) {
  server.Register("/statusz", [&service] {
    obs::IntrospectResponse response;
    response.body = service.StatusJson();
    return response;
  });
}

}  // namespace snor::serve
