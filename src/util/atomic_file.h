#ifndef SNOR_UTIL_ATOMIC_FILE_H_
#define SNOR_UTIL_ATOMIC_FILE_H_

#include <functional>
#include <ostream>
#include <string>

#include "util/status.h"

namespace snor {

/// Replaces the file at `path` so that no reader, and no crash, ever
/// sees it half-written. `write` streams the new contents into a
/// temporary file in the same directory; that file is flushed to disk
/// and renamed over `path` only if every write succeeded. On any failure
/// the temporary file is removed, the old file at `path` (if any) is
/// left as it was, and the result is `IoError`. Concurrent writers to
/// one path each use their own temporary file, so the last rename wins
/// and the file always holds one writer's complete output.
[[nodiscard]] Status WriteFileAtomically(
    const std::string& path, const std::function<void(std::ostream&)>& write);

}  // namespace snor

#endif  // SNOR_UTIL_ATOMIC_FILE_H_
