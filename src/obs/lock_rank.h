#ifndef SNOR_OBS_LOCK_RANK_H_
#define SNOR_OBS_LOCK_RANK_H_

/// \file
/// Ranked mutexes: the process-wide lock order lives in the type.
///
/// Every runtime mutex in src/ is an `obs::RankedMutex` built with a
/// `LockRank`. Each thread keeps a small stack of the ranks it holds, and
/// an acquisition aborts unless its rank is strictly above every rank
/// already held — so two code paths can never take the same pair of
/// locks in opposite orders without one of them dying on its first run.
/// Blocking entry points (sleeps, file IO) call `AssertNoRankedLockHeld`
/// so a critical section never waits on the disk or the clock.
///
/// The checks are always on, in every build type: the cost is one
/// thread-local push/pop per lock. They see exercised paths only.
///
/// This is the only file in src/ that may name `std::mutex` or a
/// condition variable (snor_lint's unranked-sync rule). It sits in obs,
/// the bottom layer, so it includes nothing from the project.

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

namespace snor::obs {

/// The nesting order: a lock may only be taken while every held lock has
/// a lower rank. Keep sorted; pick a free gap for a new mutex.
enum class LockRank : int {
  kRequestQueue = 10,
  /// Guards the handler map only; handlers run unlocked.
  kIntrospectServer = 15,
  /// TraceRecorder::registry_mutex_; the thread buffers nest inside it.
  kTraceRegistry = 20,
  /// Taken by Offer while a span records; may nest MetricsRegistry.
  kRequestTraceStore = 25,
  kTraceThreadBuffer = 30,
  kSloMonitor = 35,
  kMetricsRegistry = 40,
  /// ParallelFor's first-error slot: a leaf.
  kParallelForError = 50,
};

namespace internal {

/// The ranks one thread holds, ascending (acquisition enforces it).
/// Trivially constructible, so the thread_local needs no guard.
struct HeldRanks {
  static constexpr int kCapacity = 16;
  int count;
  LockRank ranks[kCapacity];
};

inline thread_local HeldRanks tls_held_ranks;

[[noreturn]] inline void LockRankFailure(const char* what, LockRank rank) {
  const HeldRanks& held = tls_held_ranks;
  std::fprintf(stderr, "snor lock rank: %s (rank %d; %d held, top %d)\n",
               what, static_cast<int>(rank), held.count,
               held.count > 0 ? static_cast<int>(held.ranks[held.count - 1])
                              : 0);
  std::abort();
}

inline void PushRank(LockRank rank) {
  HeldRanks& held = tls_held_ranks;
  if (held.count > 0 && held.ranks[held.count - 1] >= rank) {
    LockRankFailure("acquisition out of rank order", rank);
  }
  if (held.count == HeldRanks::kCapacity) {
    LockRankFailure("too many nested locks", rank);
  }
  held.ranks[held.count++] = rank;
}

/// Removes `rank` wherever it sits: a unique_lock may release an outer
/// lock before an inner one.
inline void PopRank(LockRank rank) {
  HeldRanks& held = tls_held_ranks;
  for (int i = held.count - 1; i >= 0; --i) {
    if (held.ranks[i] != rank) continue;
    for (int j = i + 1; j < held.count; ++j) held.ranks[j - 1] = held.ranks[j];
    --held.count;
    return;
  }
  LockRankFailure("release of a lock this thread does not hold", rank);
}

}  // namespace internal

/// True when the calling thread holds any ranked mutex.
inline bool HoldsRankedLock() { return internal::tls_held_ranks.count > 0; }

/// Aborts when the calling thread holds a ranked mutex; called at the
/// entry of every blocking primitive, which `what` names.
inline void AssertNoRankedLockHeld(const char* what) {
  if (HoldsRankedLock()) {
    internal::LockRankFailure(what, internal::tls_held_ranks.ranks[0]);
  }
}

/// \brief A std::mutex with a fixed place in the lock order. Lockable, so
/// std::lock_guard / std::unique_lock work unchanged.
class RankedMutex {
 public:
  explicit RankedMutex(LockRank rank) : rank_(rank) {}
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() {
    // Checked before blocking: an inversion aborts instead of deadlocking.
    internal::PushRank(rank_);
    mutex_.lock();
  }
  bool try_lock() {
    internal::PushRank(rank_);
    if (mutex_.try_lock()) return true;
    internal::PopRank(rank_);
    return false;
  }
  void unlock() {
    mutex_.unlock();
    internal::PopRank(rank_);
  }

  LockRank rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mutex_;
  const LockRank rank_;
};

/// \brief A condition variable bound to RankedMutex. The only wait has a
/// predicate, so a spurious wakeup can never pass for a signal; waiting
/// while holding any other ranked lock aborts.
class CondVar {
 public:
  template <typename Predicate>
  void WaitFor(std::unique_lock<RankedMutex>& lock, Predicate predicate) {
    const internal::HeldRanks& held = internal::tls_held_ranks;
    if (!lock.owns_lock() || held.count != 1 ||
        held.ranks[0] != lock.mutex()->rank()) {
      internal::LockRankFailure("a wait must hold its own lock and no other",
                                lock ? lock.mutex()->rank() : LockRank{});
    }
    // Waits on the underlying std::mutex; ownership stays with `lock`
    // whether the wait returns or the predicate throws.
    std::unique_lock<std::mutex> inner(lock.mutex()->mutex_, std::adopt_lock);
    struct Release {
      std::unique_lock<std::mutex>& inner;
      ~Release() { inner.release(); }
    } release{inner};
    cv_.wait(inner, std::move(predicate));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace snor::obs

#endif  // SNOR_OBS_LOCK_RANK_H_
