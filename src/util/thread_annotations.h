#ifndef SNOR_UTIL_THREAD_ANNOTATIONS_H_
#define SNOR_UTIL_THREAD_ANNOTATIONS_H_

/// Locking-discipline annotations understood by tools/analyze
/// (snor_analyze) and, where noted, by clang's -Wthread-safety.
///
/// The project uses *comment* annotations so that the conventions work
/// with any compiler and never change codegen:
///
///   // GUARDED_BY(m)    on a member/local declaration line: the value
///                       is protected by mutex `m`. Special guards:
///                       `caller` (serialized by the caller, never
///                       touched from worker lambdas), `atomic` (the
///                       field is std::atomic), `per_worker_slot`
///                       (workers may write only their own subscript).
///   // LOCK_RANK(n)     on a std::mutex declaration line: assigns the
///                       mutex a global acquisition rank. Lower rank =
///                       acquired first (outer lock); every nested
///                       acquisition must be of a strictly higher rank.
///                       snor_analyze builds the whole-program
///                       acquisition graph and reports rank inversions
///                       and cycles as `lock-order-cycle`.
///
/// Current rank table (keep sorted; pick a free gap for a new mutex):
///
///   10  RequestQueue::mutex_        (src/serve/request_queue.h)
///   15  IntrospectServer::mutex_    (src/obs/introspect.h) — guards the
///       handler map only; handlers are copied out and invoked unlocked,
///       so whatever a handler itself locks (trace store, metrics) ranks
///       higher.
///   20  TraceRecorder::registry_mutex_ (src/obs/trace.h)
///   25  RequestTraceStore::mutex_   (src/obs/trace.h) — taken by Offer
///       while a span records; may take MetricsRegistry (40) but never
///       a buffer or queue lock.
///   30  TraceRecorder::ThreadBuffer::mutex (src/obs/trace.cc) —
///       acquired under registry_mutex_ during Export/Reset.
///   35  SloMonitor::mutex_          (src/obs/slo.h) — leaf ring update;
///       callers (RecognitionService) hold no lock when recording.
///   40  MetricsRegistry::mutex_     (src/obs/metrics.h)
///   50  ParallelFor error_mutex     (src/util/parallel.cc) — leaf.
///
/// How to annotate a new mutex:
///   1. Decide where it sits in the nesting order relative to the table
///      above (what can be held when it is taken, and what it may take
///      while held). Unrelated mutexes still get distinct ranks — the
///      rank order only binds pairs that actually nest.
///   2. Append `// LOCK_RANK(n)` to its declaration line, update the
///      table here, and re-run `tools/run_checks.sh` (the
///      snor_analyze_tree ctest fails on any inversion or cycle).
///
/// The macros below additionally light up clang's static thread-safety
/// analysis (`run_checks.sh --thread-safety`) when the attribute is
/// available; elsewhere they compile away. They are optional — the
/// comment form is what snor_analyze reads.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define SNOR_GUARDED_BY(x) __attribute__((guarded_by(x)))
#else
#define SNOR_GUARDED_BY(x)
#endif
#if __has_attribute(acquired_after)
#define SNOR_ACQUIRED_AFTER(...) __attribute__((acquired_after(__VA_ARGS__)))
#else
#define SNOR_ACQUIRED_AFTER(...)
#endif
#else
#define SNOR_GUARDED_BY(x)
#define SNOR_ACQUIRED_AFTER(...)
#endif

#endif  // SNOR_UTIL_THREAD_ANNOTATIONS_H_
