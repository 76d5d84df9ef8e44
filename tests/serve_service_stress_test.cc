// TSan-preset stress for the recognition service: many producer threads
// against the single dispatcher, with slow-worker stalls and fault
// storms shaking up the interleavings. What must hold under every
// schedule: no reply is lost or duplicated (each future fulfilled
// exactly once), outcome accounting is exact across producers / service
// stats / queue stats, and every OK answer is bit-identical to the cold
// sequential classifier.

#include "serve/service.h"

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/classifiers.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "util/fault.h"
#include "util/rng.h"

namespace snor::serve {
namespace {

/// Synthetic feature bank shaped like SNS1 (8-bin histograms, valid Hu
/// moments): cheap to match, so the stress is on the queue, not scoring.
std::vector<ImageFeatures> SyntheticBank(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ImageFeatures> bank(n);
  for (std::size_t i = 0; i < n; ++i) {
    ImageFeatures& f = bank[i];
    f.label = ClassFromIndex(static_cast<int>(i % kNumClasses));
    f.model_id = static_cast<int>(i / kNumClasses);
    f.valid = true;
    for (double& h : f.hu) h = rng.Uniform(-1.0, 1.0);
    f.histogram = ColorHistogram(8);
    for (double& bin : f.histogram.bins()) bin = rng.UniformDouble();
    f.histogram.NormalizeL1();
  }
  return bank;
}

std::uint64_t DroppedReplies() {
  return obs::MetricsRegistry::Global()
      .counter("serve.service.dropped_replies")
      .value();
}

ApproachSpec HybridSpec() {
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kHybrid;
  spec.alpha = 0.3;
  spec.beta = 0.7;
  return spec;
}

struct Tally {
  std::uint64_t ok = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t other = 0;
  std::uint64_t label_mismatches = 0;
  std::uint64_t degraded = 0;
};

TEST(ServeServiceStressTest, ManyProducersLoseNothingAndStayBitIdentical) {
  const auto gallery = SyntheticBank(256, 2);
  const auto pool = SyntheticBank(64, 3);

  // Oracle: the cold sequential classifier over the same pool.
  auto cold = MakeClassifier(HybridSpec(), gallery);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::vector<ObjectClass> expected = cold.value()->ClassifyAll(pool);

  ServiceOptions options;
  options.queue.capacity = 512;
  options.max_batch = 32;
  auto service = RecognitionService::Create(HybridSpec(), gallery, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const std::uint64_t dropped_before = DroppedReplies();

  // Slow workers reorder shard completion; they are score-neutral, so
  // bit-identity must survive them.
  ScopedFault slow(FaultPoint::kSlowWorker, 0.2, 17);

  constexpr int kProducers = 6;
  constexpr int kPerProducer = 150;
  std::vector<Tally> tallies(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Tally& tally = tallies[static_cast<std::size_t>(p)];
      std::vector<std::pair<std::size_t,
                            std::future<Result<ServiceReply>>>> futures;
      futures.reserve(kPerProducer);
      for (int i = 0; i < kPerProducer; ++i) {
        const std::size_t pick =
            (static_cast<std::size_t>(p) * 131 +
             static_cast<std::size_t>(i)) %
            pool.size();
        // Every third request carries a tight deadline so the
        // expire-in-queue and stale-answer paths are exercised too.
        const double deadline_ms = (i % 3 == 0) ? 5.0 : 0.0;
        futures.emplace_back(
            pick, service.value()->Submit(&pool[pick], deadline_ms));
      }
      for (auto& [pick, future] : futures) {
        const Result<ServiceReply> reply = future.get();
        if (reply.ok()) {
          ++tally.ok;
          if (reply.value().degraded) ++tally.degraded;
          if (reply.value().label != expected[pick]) {
            ++tally.label_mismatches;
          }
        } else if (reply.status().code() == StatusCode::kDeadlineExceeded) {
          ++tally.timed_out;
        } else if (reply.status().code() == StatusCode::kUnavailable) {
          ++tally.unavailable;
        } else {
          ++tally.other;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  service.value()->Shutdown();
  // No reply handle was destroyed unanswered.
  EXPECT_EQ(DroppedReplies(), dropped_before);

  Tally total;
  for (const Tally& t : tallies) {
    total.ok += t.ok;
    total.timed_out += t.timed_out;
    total.unavailable += t.unavailable;
    total.other += t.other;
    total.label_mismatches += t.label_mismatches;
    total.degraded += t.degraded;
  }
  constexpr std::uint64_t kSubmitted =
      static_cast<std::uint64_t>(kProducers) * kPerProducer;
  // Exactly-once: every future resolved, categories partition the total.
  EXPECT_EQ(total.ok + total.timed_out + total.unavailable + total.other,
            kSubmitted);
  EXPECT_EQ(total.other, 0u);
  EXPECT_EQ(total.label_mismatches, 0u);  // Bit-identity on every OK.
  // No failures were injected, so the breaker never opened.
  EXPECT_EQ(total.degraded, 0u);

  const ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.submitted, kSubmitted);
  EXPECT_EQ(stats.ok, total.ok);
  EXPECT_EQ(stats.timed_out, total.timed_out);
  EXPECT_EQ(stats.shed + stats.failed + stats.rejected, total.unavailable);
  EXPECT_EQ(stats.ok + stats.shed + stats.timed_out + stats.failed +
                stats.rejected,
            stats.submitted);
  EXPECT_EQ(stats.breaker_trips, 0u);
  EXPECT_EQ(service.value()->queue_stats().shed, stats.shed);
}

TEST(ServeServiceStressTest, FaultStormAccountingStaysExact) {
  const auto gallery = SyntheticBank(128, 5);
  const auto pool = SyntheticBank(32, 6);

  ServiceOptions options;
  options.queue.capacity = 64;
  options.max_batch = 8;
  options.breaker.window = 32;
  options.breaker.min_samples = 16;
  options.breaker.cooldown_ms = 20.0;
  auto service = RecognitionService::Create(HybridSpec(), gallery, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const std::uint64_t dropped_before = DroppedReplies();

  // Everything at once: failing ingest reads (retry exhaustion), NaN
  // shape scores (breaker pressure + degraded answers), slow workers
  // (deadline pressure). Rates below 1 keep a mix of outcomes alive.
  ScopedFault io(FaultPoint::kIoRead, 0.4, 61);
  ScopedFault nan(FaultPoint::kNanScore, 0.6, 62);
  ScopedFault slow(FaultPoint::kSlowWorker, 0.2, 63);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100;
  std::vector<Tally> tallies(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Tally& tally = tallies[static_cast<std::size_t>(p)];
      std::vector<std::future<Result<ServiceReply>>> futures;
      futures.reserve(kPerProducer);
      for (int i = 0; i < kPerProducer; ++i) {
        const std::size_t pick =
            (static_cast<std::size_t>(p) * 17 + static_cast<std::size_t>(i)) %
            pool.size();
        const double deadline_ms = (i % 2 == 0) ? 10.0 : 0.0;
        futures.push_back(service.value()->Submit(&pool[pick], deadline_ms));
      }
      for (auto& future : futures) {
        const Result<ServiceReply> reply = future.get();
        if (reply.ok()) {
          ++tally.ok;
          if (reply.value().degraded) ++tally.degraded;
        } else if (reply.status().code() == StatusCode::kDeadlineExceeded) {
          ++tally.timed_out;
        } else if (reply.status().code() == StatusCode::kUnavailable) {
          ++tally.unavailable;
        } else {
          ++tally.other;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  service.value()->Shutdown();
  // No reply handle was destroyed unanswered.
  EXPECT_EQ(DroppedReplies(), dropped_before);

  Tally total;
  for (const Tally& t : tallies) {
    total.ok += t.ok;
    total.timed_out += t.timed_out;
    total.unavailable += t.unavailable;
    total.other += t.other;
    total.degraded += t.degraded;
  }
  constexpr std::uint64_t kSubmitted =
      static_cast<std::uint64_t>(kProducers) * kPerProducer;
  EXPECT_EQ(total.ok + total.timed_out + total.unavailable + total.other,
            kSubmitted);
  EXPECT_EQ(total.other, 0u);

  const ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.submitted, kSubmitted);
  EXPECT_EQ(stats.ok, total.ok);
  EXPECT_EQ(stats.degraded, total.degraded);
  EXPECT_EQ(stats.timed_out, total.timed_out);
  EXPECT_EQ(stats.shed + stats.failed + stats.rejected, total.unavailable);
  EXPECT_EQ(stats.ok + stats.shed + stats.timed_out + stats.failed +
                stats.rejected,
            stats.submitted);
  EXPECT_EQ(service.value()->queue_stats().shed, stats.shed);
  // The storm is strong enough that the exact trip count is schedule-
  // dependent, but accounting must still reconcile exactly above.
}

}  // namespace
}  // namespace snor::serve
