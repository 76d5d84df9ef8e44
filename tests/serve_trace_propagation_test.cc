// Cross-thread trace propagation and tail-keep retention tests (TSan
// concurrency subset): ParallelFor workers must inherit the submitting
// thread's TraceContext, every span of a served request must carry that
// request's id across producer/dispatcher/worker threads and form one
// causal tree, the Chrome export must stitch multi-thread requests with
// flow events, and the tail-keep store must retain 100% of errored and
// deadline-exceeded requests under fault injection.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/classifiers.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "util/fault.h"
#include "util/parallel.h"

namespace snor::serve {
namespace {

using obs::RequestTrace;
using obs::RequestTraceOptions;
using obs::RequestTraceStore;
using obs::TraceEvent;
using obs::TraceRecorder;

// Shared small experiment context (same scale as serve_service_test).
ExperimentContext& Context() {
  // Leaked on purpose (static-destruction-order safety).
  // NOLINTNEXTLINE(raw-new-delete)
  static ExperimentContext& ctx = *new ExperimentContext([] {
    ExperimentConfig config;
    config.canvas_size = 64;
    config.nyu_fraction = 0.01;
    return config;
  }());
  return ctx;
}

ApproachSpec HybridSpec() {
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kHybrid;
  spec.alpha = 0.3;
  spec.beta = 0.7;
  return spec;
}

class ServeTracePropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RequestTraceStore::Global().Disable();
    RequestTraceStore::Global().Reset();
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Reset();
  }

  void TearDown() override {
    RequestTraceStore::Global().Disable();
    RequestTraceStore::Global().Reset();
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Reset();
  }
};

/// ParallelFor re-installs the caller's TraceContext inside every worker
/// thread, so request-scoped spans recorded from worker lambdas carry
/// the request id of the thread that launched the loop.
TEST_F(ServeTracePropagationTest, ParallelForWorkersInheritRequestContext) {
  TraceRecorder::Global().Enable();

  obs::TraceContext context;
  context.request_id = obs::NextTraceRequestId();
  constexpr std::size_t kTasks = 32;

  // Each worker thread's first task parks until a second thread has
  // arrived, so the dynamic scheduler cannot let one thread drain the
  // whole range (which would make the ">= 2 tids" assertion flaky).
  std::atomic<int> arrived{0};
  {
    obs::ScopedTraceContext scope(context);
    ParallelFor(
        kTasks,
        [&arrived](std::size_t) {
          thread_local bool counted = false;
          if (!counted) {
            counted = true;
            arrived.fetch_add(1, std::memory_order_relaxed);
          }
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (arrived.load(std::memory_order_relaxed) < 2 &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::yield();
          }
          SNOR_TRACE_SPAN("util.parallel.probe");
        },
        /*n_threads=*/4);
  }

  std::size_t probes = 0;
  std::set<std::int32_t> tids;
  for (const TraceEvent& event : TraceRecorder::Global().Snapshot()) {
    if (std::string(event.name) != "util.parallel.probe") continue;
    ++probes;
    tids.insert(event.tid);
    EXPECT_EQ(event.request_id, context.request_id);
    EXPECT_NE(event.span_id, 0u);
  }
  EXPECT_EQ(probes, kTasks);
  EXPECT_GE(tids.size(), 2u)
      << "worker spans all landed on one thread; context propagation "
         "across the pool was not exercised";
}

/// Every span of a served request carries that request's id, the spans
/// form a single causal tree rooted at the submit span, and the tree
/// crosses at least the producer and dispatcher threads.
TEST_F(ServeTracePropagationTest, ServiceSpansFormCausalChainPerRequest) {
  auto& ctx = Context();
  const auto& inputs = ctx.Sns2Features();
  ASSERT_FALSE(inputs.empty());
  const std::size_t n_queries = std::min<std::size_t>(inputs.size(), 24);

  RequestTraceOptions trace_options;
  trace_options.keep_errors = true;
  trace_options.sample_every = 1;  // Keep every request.
  trace_options.max_kept = 4096;
  RequestTraceStore::Global().Enable(trace_options);

  ServiceOptions options;
  options.queue.capacity = n_queries + 8;
  options.max_batch = 8;
  options.baseline_seed = ctx.config().seed;
  auto service =
      RecognitionService::Create(HybridSpec(), ctx.Sns1Features(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::vector<std::future<Result<ServiceReply>>> futures;
  for (std::size_t i = 0; i < n_queries; ++i) {
    futures.push_back(service.value()->Submit(&inputs[i]));
  }
  for (auto& future : futures) {
    const Result<ServiceReply> reply = future.get();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  }
  service.value()->Shutdown();

  const std::vector<RequestTrace> kept = RequestTraceStore::Global().Kept();
  ASSERT_EQ(kept.size(), n_queries);

  for (const RequestTrace& trace : kept) {
    ASSERT_NE(trace.request_id, 0u);
    ASSERT_FALSE(trace.spans.empty());

    std::set<std::uint64_t> span_ids;
    std::set<std::int32_t> tids;
    std::set<std::string> names;
    std::size_t roots = 0;
    for (const TraceEvent& span : trace.spans) {
      EXPECT_EQ(span.request_id, trace.request_id)
          << "span " << span.name << " leaked into request "
          << trace.request_id;
      EXPECT_NE(span.span_id, 0u);
      span_ids.insert(span.span_id);
      tids.insert(span.tid);
      names.insert(span.name);
      if (span.parent_span == 0) ++roots;
    }
    // Exactly one root: the producer-side submit span.
    EXPECT_EQ(roots, 1u) << "request " << trace.request_id;
    EXPECT_TRUE(names.count("serve.request.submit"));
    EXPECT_TRUE(names.count("serve.request.answer"));
    // Every non-root span attaches to another span of the same request:
    // the tree is connected, never dangling into a foreign request.
    for (const TraceEvent& span : trace.spans) {
      if (span.parent_span == 0) continue;
      EXPECT_TRUE(span_ids.count(span.parent_span))
          << span.name << " parents an unknown span in request "
          << trace.request_id;
    }
    // Producer (test thread) and dispatcher are distinct threads, so a
    // request's chain must span at least two tids.
    EXPECT_GE(tids.size(), 2u) << "request " << trace.request_id;
  }

  // The Chrome export stitches each multi-span request with flow events
  // ("s" start / "f" finish, id = request id) so Perfetto draws the
  // cross-thread causal arrows.
  const std::string json = TraceRecorder::Global().ChromeTraceJson();
  EXPECT_NE(json.find("\"obs.trace.flow\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  const std::string id_key =
      "\"id\":" + std::to_string(kept.front().request_id);
  EXPECT_NE(json.find(id_key), std::string::npos)
      << "no flow event carries the first kept request's id";
}

/// Under a fault storm plus deadline pressure, the tail-keep store must
/// retain the full span tree of *every* errored and deadline-exceeded
/// request — the observability contract that makes failures debuggable
/// after the fact — while dropping healthy (unsampled) requests.
TEST_F(ServeTracePropagationTest, TailKeepRetainsAllFailuresUnderFaults) {
  auto& ctx = Context();
  const auto& inputs = ctx.Sns2Features();
  ASSERT_FALSE(inputs.empty());

  RequestTraceOptions trace_options;
  trace_options.keep_errors = true;
  trace_options.latency_keep_threshold_us = 0.0;  // Errors only...
  trace_options.sample_every = 0;                 // ...no healthy keeps.
  trace_options.max_kept = 4096;
  trace_options.max_pending = 4096;
  RequestTraceStore::Global().Enable(trace_options);

  ServiceOptions options;
  options.queue.capacity = 512;
  options.max_batch = 8;
  options.retry.max_attempts = 1;  // Each ingest fault fire is an error.
  options.baseline_seed = ctx.config().seed;
  auto service =
      RecognitionService::Create(HybridSpec(), ctx.Sns1Features(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  obs::Counter& dropped_replies =
      obs::MetricsRegistry::Global().counter("serve.service.dropped_replies");
  const std::uint64_t dropped_before = dropped_replies.value();

  constexpr int kProducers = 3;
  constexpr int kPerProducer = 20;
  std::atomic<std::uint64_t> ok_replies{0};
  std::atomic<std::uint64_t> deadline_replies{0};
  std::atomic<std::uint64_t> error_replies{0};
  {
    // Ingest failures (retry-exhausted -> error), poisoned shape scores,
    // and stalled workers + tight deadlines (-> deadline exceeded).
    ScopedFault io_fault(FaultPoint::kIoRead, 0.25, /*seed=*/41);
    ScopedFault nan_fault(FaultPoint::kNanScore, 0.10, /*seed=*/43);
    ScopedFault slow_fault(FaultPoint::kSlowWorker, 0.30, /*seed=*/47);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const ImageFeatures& query =
              inputs[static_cast<std::size_t>(p * kPerProducer + i) %
                     inputs.size()];
          // Every third request runs against a deadline short enough for
          // a slow-worker stall (or queueing behind one) to blow it.
          const double deadline_ms = (i % 3 == 0) ? 8.0 : 0.0;
          const Result<ServiceReply> reply =
              service.value()->Submit(&query, deadline_ms).get();
          if (reply.ok()) {
            ok_replies.fetch_add(1, std::memory_order_relaxed);
          } else if (reply.status().code() ==
                     StatusCode::kDeadlineExceeded) {
            deadline_replies.fetch_add(1, std::memory_order_relaxed);
          } else {
            error_replies.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
  }
  service.value()->Shutdown();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kProducers) * kPerProducer;
  ASSERT_EQ(ok_replies.load() + deadline_replies.load() + error_replies.load(),
            kTotal);
  EXPECT_EQ(dropped_replies.value(), dropped_before);
  // The fault rates above make failures overwhelmingly likely (~10^-5
  // odds of a clean run); without any the retention claim is vacuous.
  EXPECT_GT(deadline_replies.load() + error_replies.load(), 0u);

  const RequestTraceStore::Stats stats = RequestTraceStore::Global().stats();
  EXPECT_EQ(stats.finished, kTotal);
  EXPECT_EQ(stats.evicted, 0u);

  std::uint64_t kept_errors = 0;
  std::uint64_t kept_deadlines = 0;
  for (const RequestTrace& trace : RequestTraceStore::Global().Kept()) {
    if (trace.deadline_exceeded) {
      ++kept_deadlines;
    } else if (trace.error) {
      ++kept_errors;
    }
    EXPECT_FALSE(trace.sampled);
    for (const TraceEvent& span : trace.spans) {
      EXPECT_EQ(span.request_id, trace.request_id);
    }
  }
  // 100% retention: one kept trace per failed reply, by failure class.
  EXPECT_EQ(kept_errors, error_replies.load());
  EXPECT_EQ(kept_deadlines, deadline_replies.load());
  // And healthy requests were all dropped (sample_every = 0).
  EXPECT_EQ(stats.kept, kept_errors + kept_deadlines);
  EXPECT_EQ(stats.dropped, ok_replies.load());
}

}  // namespace
}  // namespace snor::serve
