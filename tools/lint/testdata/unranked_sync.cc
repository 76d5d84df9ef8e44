// LINT-AS: src/serve/unranked_sync.cc
// Fixture: raw synchronization primitives in library code. Every mutex
// must be an obs::RankedMutex and every wait an obs::CondVar::WaitFor.

#include <condition_variable>  // EXPECT-LINT: unranked-sync
#include <mutex>

namespace snor {

struct Unranked {
  std::mutex mutex;                // EXPECT-LINT: unranked-sync
  std::condition_variable ready;   // EXPECT-LINT: unranked-sync
  std::once_flag once;             // not a mutex: allowed
  // A comment naming std::mutex is not code.
};

}  // namespace snor
