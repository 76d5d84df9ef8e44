#ifndef SNOR_TESTS_HOSTILE_INPUT_H_
#define SNOR_TESTS_HOSTILE_INPUT_H_

// Helpers for feeding loaders files whose counts and lengths lie.
//
// A loader that trusts such a field allocates for it before noticing the
// file is too short. Without a memory limit that goes unseen: the kernel
// overcommits, the allocation succeeds, and the loader then fails cleanly
// on the short read. Tests therefore run the loader in a death-test
// child whose address space is capped a little above what it already
// uses, so any allocation sized by a hostile field throws.

#include <sys/resource.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
/// Sanitizers reserve terabytes of shadow address space, so an address-
/// space cap cannot be applied under them.
#define SNOR_HOSTILE_INPUT_UNSUPPORTED 1
#else
#define SNOR_HOSTILE_INPUT_UNSUPPORTED 0
#endif

namespace snor::hostile {

/// Room left above the current address-space size.
inline constexpr std::uint64_t kHeadroomBytes = 64ull << 20;

/// Caps this process's address space at its current size plus
/// kHeadroomBytes. Call only in a death-test child.
inline bool CapAddressSpace() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  if (!(statm >> pages)) return false;
  const auto limit = static_cast<rlim_t>(
      pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)) +
      kHeadroomBytes);
  const rlimit rl{limit, limit};
  return ::setrlimit(RLIMIT_AS, &rl) == 0;
}

/// Appends the raw bytes of `value` to `out`.
template <typename T>
void Put(std::string* out, const T& value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out->append(bytes, sizeof(T));
}

inline void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace snor::hostile

#endif  // SNOR_TESTS_HOSTILE_INPUT_H_
