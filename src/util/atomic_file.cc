#include "util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "obs/lock_rank.h"
#include "util/string_util.h"

namespace snor {
namespace {

/// Flushes the file's data to the device, so that a rename after it
/// cannot publish a file whose blocks were never written.
bool SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  return ::close(fd) == 0 && synced;
}

}  // namespace

Status WriteFileAtomically(const std::string& path,
                           const std::function<void(std::ostream&)>& write) {
  obs::AssertNoRankedLockHeld("WriteFileAtomically");
  static std::atomic<std::uint64_t> sequence{0};
  const std::string tmp =
      StrFormat("%s.tmp.%ld.%llu", path.c_str(), static_cast<long>(::getpid()),
                static_cast<unsigned long long>(sequence.fetch_add(1)));
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open for writing: " + path);
    write(out);
    out.close();
    if (!out) {
      std::filesystem::remove(tmp, ec);
      return Status::IoError("write failed: " + path);
    }
  }
  if (!SyncFile(tmp)) {
    std::filesystem::remove(tmp, ec);
    return Status::IoError("sync failed: " + path);
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return Status::IoError("cannot replace " + path + ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace snor
