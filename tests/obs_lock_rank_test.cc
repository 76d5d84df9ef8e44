// Ranked mutexes (obs/lock_rank.h): out-of-order acquisitions and
// blocking calls under a lock abort in every build, non-LIFO releases
// keep the per-thread rank stack exact, the documented nestings of the
// real registries run clean, and CondVar waits on its predicate.

#include "obs/lock_rank.h"

#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/retry.h"

namespace snor::obs {
namespace {

TEST(ObsLockRankTest, AcquisitionAtOrBelowHeldRankDies) {
  EXPECT_DEATH(
      {
        RankedMutex outer(LockRank::kMetricsRegistry);
        RankedMutex inner(LockRank::kRequestQueue);
        std::lock_guard<RankedMutex> hold_outer(outer);
        std::lock_guard<RankedMutex> hold_inner(inner);
      },
      "acquisition out of rank order");
  EXPECT_DEATH(
      {
        RankedMutex first(LockRank::kTraceThreadBuffer);
        RankedMutex second(LockRank::kTraceThreadBuffer);
        std::lock_guard<RankedMutex> hold_first(first);
        std::lock_guard<RankedMutex> hold_second(second);
      },
      "acquisition out of rank order");
}

TEST(ObsLockRankTest, SleepUnderRankedLockDies) {
  EXPECT_DEATH(
      {
        RankedMutex mutex(LockRank::kSloMonitor);
        std::lock_guard<RankedMutex> hold(mutex);
        snor::internal::SleepForMillis(1.0);
      },
      "SleepForMillis");
}

TEST(ObsLockRankTest, NonLifoReleaseKeepsTheStackExact) {
  RankedMutex queue(LockRank::kRequestQueue);
  RankedMutex registry(LockRank::kTraceRegistry);
  RankedMutex metrics(LockRank::kMetricsRegistry);
  std::unique_lock<RankedMutex> hold_queue(queue);
  std::unique_lock<RankedMutex> hold_registry(registry);
  hold_queue.unlock();  // The outer lock goes first.
  EXPECT_TRUE(HoldsRankedLock());
  {
    // The registry (20) is still the top, so 40 nests fine.
    std::lock_guard<RankedMutex> hold_metrics(metrics);
  }
  hold_registry.unlock();
  EXPECT_FALSE(HoldsRankedLock());
  // An empty stack accepts the lowest rank again, and re-locking an
  // unlocked unique_lock pushes it afresh.
  hold_queue.lock();
  hold_registry.lock();
  EXPECT_TRUE(HoldsRankedLock());
  hold_registry.unlock();
  hold_queue.unlock();
  EXPECT_FALSE(HoldsRankedLock());
}

TEST(ObsLockRankTest, HeldRanksArePerThread) {
  RankedMutex mutex(LockRank::kSloMonitor);
  std::lock_guard<RankedMutex> hold(mutex);
  bool other_holds = true;
  std::thread([&] { other_holds = HoldsRankedLock(); }).join();
  EXPECT_FALSE(other_holds);
  EXPECT_TRUE(HoldsRankedLock());
}

TEST(ObsLockRankTest, DocumentedNestingsRunClean) {
  TraceRecorder& recorder = TraceRecorder::Global();
  RequestTraceStore& store = RequestTraceStore::Global();
  RequestTraceOptions options;
  options.keep_errors = true;
  store.Enable(options);  // Also enables the recorder.

  // A request-scoped span: registry (20) to register this thread's
  // buffer, the buffer (30), then RequestTraceStore::Offer (25), each
  // released before the next.
  TraceContext context;
  context.request_id = NextTraceRequestId();
  { SNOR_TRACE_SPAN_CTX("obs.lock_rank.offer", context); }
  store.Finish(context.request_id, /*error=*/true,
               /*deadline_exceeded=*/false, /*latency_us=*/1.0);
  EXPECT_GE(store.stats().kept, 1u);

  // Registry (20) -> ThreadBuffer (30), nested.
  EXPECT_EQ(recorder.dropped_count(), 0u);
  recorder.Reset();

  // RequestTraceStore (25) may take MetricsRegistry (40).
  RankedMutex store_rank(LockRank::kRequestTraceStore);
  {
    std::lock_guard<RankedMutex> hold(store_rank);
    MetricsRegistry::Global().counter("obs.lock_rank.nested").Increment();
  }
  EXPECT_EQ(MetricsRegistry::Global().counter("obs.lock_rank.nested").value(),
            1u);

  store.Disable();
  store.Reset();
  recorder.Disable();
  EXPECT_FALSE(HoldsRankedLock());
}

TEST(ObsLockRankTest, CondVarWaitForWakesOnItsPredicate) {
  RankedMutex mutex(LockRank::kRequestQueue);
  CondVar ready_cv;
  bool ready = false;
  std::thread signaller([&] {
    {
      std::lock_guard<RankedMutex> hold(mutex);
      ready = true;
    }
    ready_cv.NotifyOne();
  });
  std::unique_lock<RankedMutex> lock(mutex);
  ready_cv.WaitFor(lock, [&] { return ready; });
  EXPECT_TRUE(ready);
  EXPECT_TRUE(lock.owns_lock());
  lock.unlock();
  EXPECT_FALSE(HoldsRankedLock());
  signaller.join();
}

TEST(ObsLockRankTest, WaitWhileHoldingAnotherLockDies) {
  EXPECT_DEATH(
      {
        RankedMutex queue(LockRank::kRequestQueue);
        RankedMutex slo(LockRank::kSloMonitor);
        CondVar cv;
        std::unique_lock<RankedMutex> hold_queue(queue);
        std::unique_lock<RankedMutex> hold_slo(slo);
        cv.WaitFor(hold_slo, [] { return true; });
      },
      "a wait must hold its own lock and no other");
}

}  // namespace
}  // namespace snor::obs
