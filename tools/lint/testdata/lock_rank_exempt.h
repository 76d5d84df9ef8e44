// LINT-AS: src/obs/lock_rank.h
// Fixture: the one file in src/ that wraps the raw primitives. Must
// produce zero violations.
#ifndef SNOR_TOOLS_LINT_TESTDATA_LOCK_RANK_EXEMPT_H_
#define SNOR_TOOLS_LINT_TESTDATA_LOCK_RANK_EXEMPT_H_

#include <condition_variable>
#include <mutex>

namespace snor::obs {

class RankedMutexFixture {
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace snor::obs

#endif  // SNOR_TOOLS_LINT_TESTDATA_LOCK_RANK_EXEMPT_H_
