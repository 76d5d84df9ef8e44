// RecognitionService behaviour tests: bit-identity of the service path
// with the cold classifier across every Table-2 approach, deadline
// enforcement (expired-in-queue and stale-after-classification), load
// shedding under backlog, ingest-retry exhaustion, circuit-breaker trip
// to the degraded colour-only engine and half-open recovery, drain-on-
// shutdown, post-shutdown rejection, and rejection of queries whose
// histogram geometry does not match the gallery.

#include "serve/service.h"

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/classifiers.h"
#include "core/experiment.h"
#include "util/fault.h"

namespace snor::serve {
namespace {

// Shared small experiment context (same scale as serve_engine_test).
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

/// Every Table-2 approach served through the queue + dispatcher must
/// answer exactly what the cold sequential classifier answers — the
/// BatchEngine bit-identity proof extended over the service path.
TEST(ServeServiceBitIdentityTest, AllApproachesMatchColdClassifier) {
  auto& ctx = Context();
  const auto& inputs = ctx.Sns2Features();
  const auto& gallery = ctx.Sns1Features();
  ASSERT_FALSE(inputs.empty());

  for (const ApproachSpec& spec : Table2Approaches()) {
    auto cold = MakeClassifier(spec, gallery, ctx.config().seed);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    const std::vector<ObjectClass> expected =
        cold.value()->ClassifyAll(inputs);

    ServiceOptions options;
    options.queue.capacity = inputs.size() + 8;
    options.max_batch = 16;  // Several batches, order still FIFO.
    options.baseline_seed = ctx.config().seed;
    auto service = RecognitionService::Create(spec, gallery, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();

    std::vector<std::future<Result<ServiceReply>>> futures;
    futures.reserve(inputs.size());
    for (const ImageFeatures& query : inputs) {
      futures.push_back(service.value()->Submit(&query));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const Result<ServiceReply> reply = futures[i].get();
      ASSERT_TRUE(reply.ok())
          << spec.DisplayName() << ": " << reply.status().ToString();
      EXPECT_EQ(reply.value().label, expected[i]) << spec.DisplayName();
      EXPECT_FALSE(reply.value().degraded);
    }
    service.value()->Shutdown();
    const ServiceStats stats = service.value()->stats();
    EXPECT_EQ(stats.submitted, inputs.size());
    EXPECT_EQ(stats.ok, inputs.size());
    EXPECT_EQ(stats.shed + stats.timed_out + stats.failed + stats.rejected,
              0u);
  }
}

TEST(ServeServiceTest, CreateFailsOnEmptyGallery) {
  auto service = RecognitionService::Create(HybridSpec(), {});
  EXPECT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeServiceTest, AlreadyExpiredDeadlineIsAnsweredDeadlineExceeded) {
  auto& ctx = Context();
  auto service =
      RecognitionService::Create(HybridSpec(), ctx.Sns1Features());
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const ImageFeatures& query = ctx.Sns2Features().front();
  // A nanosecond-scale deadline is over before the dispatcher can pop.
  const Result<ServiceReply> reply =
      service.value()->Submit(&query, 1e-6).get();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  const ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.ok, 0u);
}

TEST(ServeServiceTest, BacklogShedsDeadlineRequestsPastWatermark) {
  auto& ctx = Context();
  ServiceOptions options;
  options.queue.capacity = 4;  // Watermark defaults to 3.
  options.max_batch = 1;
  auto service = RecognitionService::Create(HybridSpec(),
                                            ctx.Sns1Features(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // Every classification stalls ~2ms, so a burst of 40 submissions from
  // one thread outruns the dispatcher and must hit admission control.
  ScopedFault slow(FaultPoint::kSlowWorker, 1.0, 23);
  const ImageFeatures& query = ctx.Sns2Features().front();
  constexpr int kBurst = 40;
  std::vector<std::future<Result<ServiceReply>>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(service.value()->Submit(&query, /*deadline_ms=*/1e4));
  }

  int ok = 0;
  int shed = 0;
  for (auto& future : futures) {
    const Result<ServiceReply> reply = future.get();
    if (reply.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(reply.status().code(), StatusCode::kUnavailable)
          << reply.status().ToString();
      ++shed;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);  // The burst cannot fit a depth-3 watermark.
  service.value()->Shutdown();
  const ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.ok, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(stats.shed, service.value()->queue_stats().shed);
  EXPECT_EQ(stats.ok + stats.shed + stats.timed_out + stats.failed +
                stats.rejected,
            stats.submitted);
}

TEST(ServeServiceTest, IngestRetryExhaustionAnswersUnavailable) {
  auto& ctx = Context();
  auto service =
      RecognitionService::Create(HybridSpec(), ctx.Sns1Features());
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const ImageFeatures& query = ctx.Sns2Features().front();
  {
    // Every ingest probe fails: the bounded retry (3 attempts) must give
    // up and answer this one request without poisoning the service.
    ScopedFault io(FaultPoint::kIoRead, 1.0, 31);
    const Result<ServiceReply> reply = service.value()->Classify(query);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(service.value()->stats().failed, 1u);
  }
  // The fault gone, the same service keeps serving.
  const Result<ServiceReply> healthy = service.value()->Classify(query);
  EXPECT_TRUE(healthy.ok()) << healthy.status().ToString();
}

ApproachSpec ShapeSpec() {
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kShape;
  return spec;
}

TEST(ServeServiceTest, BreakerTripsToDegradedAndRecoversViaHalfOpen) {
  auto& ctx = Context();
  const auto& gallery = ctx.Sns1Features();
  ServiceOptions options;
  options.breaker.window = 16;
  options.breaker.min_samples = 8;
  options.breaker.failure_ratio = 0.5;
  options.breaker.cooldown_ms = 200.0;

  // Cold colour-only classifier: the oracle for degraded-mode answers.
  ApproachSpec color_spec;
  color_spec.kind = ApproachSpec::Kind::kColor;
  auto color = MakeClassifier(color_spec, gallery, ctx.config().seed);
  ASSERT_TRUE(color.ok()) << color.status().ToString();

  const ImageFeatures& query = ctx.Sns2Features().front();
  for (const ApproachSpec& spec : {HybridSpec(), ShapeSpec()}) {
    SCOPED_TRACE(spec.DisplayName());
    auto service = RecognitionService::Create(spec, gallery, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_NE(service.value()->degraded_engine(), nullptr);
    {
      // Shape scores all NaN: every hybrid classification collapses to a
      // single modality and every shape-only argmin finds no usable view;
      // the breaker counts both as primary-path failures. After
      // min_samples such batches it must trip open.
      ScopedFault nan(FaultPoint::kNanScore, 1.0, 41);
      for (int i = 0; i < 8; ++i) {
        const Result<ServiceReply> reply = service.value()->Classify(query);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      }
      // The dispatcher replies before its breaker bookkeeping runs, so
      // stats trail the 8th reply by a scheduling quantum; poll briefly.
      ServiceStats tripped = service.value()->stats();
      for (int spin = 0; spin < 400 && tripped.breaker_trips == 0; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        tripped = service.value()->stats();
      }
      EXPECT_GE(tripped.breaker_trips, 1u);
      EXPECT_EQ(tripped.breaker_state,
                static_cast<int>(CircuitBreaker::State::kOpen));

      // Open: answers come from the degraded colour-only engine, which is
      // immune to shape poisoning and must match the cold colour oracle.
      // On a slow machine the cool-down may already have elapsed, making
      // one call a half-open probe on the (still faulty) primary path;
      // that probe re-opens the breaker, so the next call is degraded.
      bool saw_degraded = false;
      for (int attempt = 0; attempt < 3 && !saw_degraded; ++attempt) {
        const Result<ServiceReply> degraded = service.value()->Classify(query);
        ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
        if (!degraded.value().degraded) continue;
        saw_degraded = true;
        EXPECT_EQ(degraded.value().label, color.value()->Classify(query));
      }
      EXPECT_TRUE(saw_degraded);
      EXPECT_GE(service.value()->stats().degraded, 1u);
    }

    // Fault lifted + cool-down elapsed: the next batch is the half-open
    // probe on the primary path; its success closes the breaker.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const Result<ServiceReply> probe = service.value()->Classify(query);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    EXPECT_FALSE(probe.value().degraded);
    const int closed = static_cast<int>(CircuitBreaker::State::kClosed);
    int state = service.value()->stats().breaker_state;
    for (int spin = 0; spin < 400 && state != closed; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      state = service.value()->stats().breaker_state;
    }
    EXPECT_EQ(state, closed);
  }
}

// A query whose histogram geometry differs from the gallery's cannot be
// scored by any engine (the degraded colour engine reads the histogram
// even when a shape-only primary does not). It is answered once with
// InvalidArgument, counted as failed, and the service keeps serving.
TEST(ServeServiceTest, MismatchedHistogramGeometryIsInvalidArgument) {
  auto& ctx = Context();
  const auto& gallery = ctx.Sns1Features();
  ASSERT_EQ(gallery.front().histogram.bins_per_channel(), 8);
  ImageFeatures query = ctx.Sns2Features().front();
  query.histogram = ColorHistogram(4);

  for (const ApproachSpec& spec : Table2Approaches()) {
    SCOPED_TRACE(spec.DisplayName());
    auto service = RecognitionService::Create(spec, gallery);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    const Result<ServiceReply> reply = service.value()->Classify(query);
    EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
    const Result<ServiceReply> healthy =
        service.value()->Classify(ctx.Sns2Features().front());
    EXPECT_TRUE(healthy.ok()) << healthy.status().ToString();

    service.value()->Shutdown();
    const ServiceStats stats = service.value()->stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.ok, 1u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.submitted, stats.ok + stats.shed + stats.timed_out +
                                   stats.failed + stats.rejected);
  }
}

TEST(ServeServiceTest, ShutdownDrainsEveryQueuedRequest) {
  auto& ctx = Context();
  ServiceOptions options;
  options.queue.capacity = 64;
  options.max_batch = 4;
  auto service = RecognitionService::Create(HybridSpec(),
                                            ctx.Sns1Features(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  ScopedFault slow(FaultPoint::kSlowWorker, 0.5, 53);
  const auto& inputs = ctx.Sns2Features();
  std::vector<std::future<Result<ServiceReply>>> futures;
  constexpr int kRequests = 20;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(service.value()->Submit(
        &inputs[static_cast<std::size_t>(i) % inputs.size()]));
  }
  // Close admission immediately: everything already admitted must still
  // be answered (deadline-free requests cannot expire).
  service.value()->Shutdown();
  for (auto& future : futures) {
    const Result<ServiceReply> reply = future.get();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  }
  const ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.ok, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
}

TEST(ServeServiceTest, SubmitAfterShutdownIsRejected) {
  auto& ctx = Context();
  auto service =
      RecognitionService::Create(HybridSpec(), ctx.Sns1Features());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  service.value()->Shutdown();

  const ImageFeatures& query = ctx.Sns2Features().front();
  const Result<ServiceReply> reply = service.value()->Classify(query);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  const ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.rejected, 1u);
  // Shutdown is idempotent; the destructor's second call is a no-op.
  service.value()->Shutdown();
}

}  // namespace
}  // namespace snor::serve
