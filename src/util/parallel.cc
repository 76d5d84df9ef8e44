#include "util/parallel.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>

#include "obs/lock_rank.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"

namespace snor {

int DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int n_threads) {
  if (n == 0) return;
  SNOR_TRACE_SPAN("util.parallel.for");
  static obs::Counter& items_counter =
      obs::MetricsRegistry::Global().counter("util.parallel.items");
  items_counter.Increment(n);
  if (n_threads <= 0) n_threads = DefaultThreadCount();
  n_threads = std::min<int>(n_threads, static_cast<int>(n));

  // Small batches or single-threaded: run inline (identical semantics;
  // exceptions propagate to the caller directly).
  if (n_threads <= 1 || n < 16) {
    for (std::size_t i = 0; i < n; ++i) {
      MaybeInjectDelay();
      fn(i);
    }
    return;
  }

  obs::MetricsRegistry::Global()
      .gauge("util.parallel.workers")
      .Set(static_cast<double>(n_threads));
  static obs::Histogram& queue_wait_us =
      obs::MetricsRegistry::Global().histogram("util.parallel.queue_wait_us");
  const auto pool_start = std::chrono::steady_clock::now();

  // A throwing worker must not terminate the process (std::thread would
  // call std::terminate on an escaped exception). Capture the first
  // exception, stop handing out new indices, and rethrow on join.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  obs::RankedMutex error_mutex(obs::LockRank::kParallelForError);

  // Workers inherit the caller's request scope so spans they record stay
  // on the request's causal chain across the thread hop (per-index work
  // may still install a more specific context of its own).
  const obs::TraceContext parent_context = obs::CurrentTraceContext();

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(n_threads));
  for (int t = 0; t < n_threads; ++t) {
    workers.emplace_back([&] {
      // Time from pool launch to this worker picking up its first item —
      // the thread-spawn/scheduling latency of the pool.
      queue_wait_us.Record(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - pool_start)
                               .count());
      obs::ScopedTraceContext worker_context(parent_context);
      SNOR_TRACE_SPAN("util.parallel.worker");
      for (;;) {
        if (failed.load(std::memory_order_acquire)) return;
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          MaybeInjectDelay();
          fn(i);
        } catch (...) {
          {
            std::lock_guard<obs::RankedMutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
          failed.store(true, std::memory_order_release);
          // Drain the remaining indices so peers exit promptly.
          next.store(n, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace snor
