// Compile-fail fixture for -Werror=unused-result (root CMakeLists.txt).
//
// Built twice from tests/CMakeLists.txt: as-is in the normal build,
// where every fallible result is checked and the file must compile, and
// with SNOR_DISCARD_RESULTS defined by the DiscardedStatusFailsToCompile
// ctest, which expects the build to fail on the two discards.

#include "util/status.h"

namespace snor {

Status Fallible();
Result<int> FallibleValue();

int Caller() {
#ifdef SNOR_DISCARD_RESULTS
  Fallible();
  FallibleValue();
  return 0;
#else
  if (!Fallible().ok()) return -1;
  const Result<int> value = FallibleValue();
  return value.ok() ? value.value() : -1;
#endif
}

}  // namespace snor
