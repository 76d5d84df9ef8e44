#include "img/io_ppm.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <fstream>

#include "util/fault.h"
#include "util/string_util.h"

namespace snor {

Status WritePnm(const ImageU8& img, const std::string& path) {
  if (img.empty()) return Status::InvalidArgument("empty image");
  if (img.channels() != 1 && img.channels() != 3) {
    return Status::InvalidArgument(
        StrFormat("PNM supports 1 or 3 channels, got %d", img.channels()));
  }
  std::ofstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open for writing: " + path);
  const char* magic = img.channels() == 3 ? "P6" : "P5";
  file << magic << "\n" << img.width() << " " << img.height() << "\n255\n";
  file.write(reinterpret_cast<const char*>(img.data()),
             static_cast<std::streamsize>(img.size()));
  if (!file) return Status::IoError("write failed: " + path);
  return Status::OK();
}

namespace {

// Reads the next whitespace/comment-delimited token from a PNM header.
// The PNM spec allows `#` comment lines anywhere in the header, including
// directly after a value with no intervening whitespace ("255#made by x").
Result<std::string> NextToken(std::istream& in) {
  std::string token;
  int c = in.get();
  // Skip whitespace and comments.
  while (c != EOF) {
    if (c == '#') {
      while (c != EOF && c != '\n') c = in.get();
    } else if (std::isspace(c)) {
      c = in.get();
    } else {
      break;
    }
  }
  if (c == EOF) return Status::IoError("unexpected EOF in PNM header");
  while (c != EOF && !std::isspace(c) && c != '#') {
    token += static_cast<char>(c);
    c = in.get();
  }
  if (c == '#') {
    // A comment terminates the token; consume it through its newline so
    // the comment bytes can never leak into the raster payload (the
    // newline doubles as the single delimiter before the raster when
    // this was the maxval token).
    while (c != EOF && c != '\n') c = in.get();
  }
  return token;
}

// Reads a header value; every PNM header value (width, height, maxval)
// must lie in [1, INT_MAX], so a value that would narrow is rejected.
Result<int> NextInt(std::istream& in) {
  SNOR_ASSIGN_OR_RETURN(std::string token, NextToken(in));
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    return Status::IoError("bad integer in PNM header: " + token);
  }
  if (errno == ERANGE || v < 1 || v > INT_MAX) {
    return Status::IoError("PNM header value out of range: " + token);
  }
  return static_cast<int>(v);
}

}  // namespace

Result<ImageU8> ReadPnm(const std::string& path) {
  SNOR_RETURN_NOT_OK(InjectFault(FaultPoint::kIoRead, "ReadPnm " + path));
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open for reading: " + path);
  SNOR_ASSIGN_OR_RETURN(std::string magic, NextToken(file));
  int channels = 0;
  if (magic == "P6") {
    channels = 3;
  } else if (magic == "P5") {
    channels = 1;
  } else {
    return Status::IoError("unsupported PNM magic: " + magic);
  }
  SNOR_ASSIGN_OR_RETURN(int width, NextInt(file));
  SNOR_ASSIGN_OR_RETURN(int height, NextInt(file));
  SNOR_ASSIGN_OR_RETURN(int maxval, NextInt(file));
  if (maxval != 255) {
    return Status::NotImplemented("only maxval=255 PNM files are supported");
  }
  // NextToken already consumed the single whitespace byte after maxval.
  // Check the declared raster against the bytes that are left before
  // allocating it, so a lying header cannot size the allocation.
  const std::streampos raster_start = file.tellg();
  file.seekg(0, std::ios::end);
  const std::streampos file_end = file.tellg();
  file.seekg(raster_start);
  const auto declared = static_cast<std::uint64_t>(width) *
                        static_cast<std::uint64_t>(height) *
                        static_cast<std::uint64_t>(channels);
  const auto left = static_cast<std::uint64_t>(file_end - raster_start);
  if (!file || declared > left) {
    return Status::IoError(StrFormat(
        "truncated PNM payload: header declares %llu byte(s), %llu remain: "
        "%s",
        static_cast<unsigned long long>(declared),
        static_cast<unsigned long long>(left), path.c_str()));
  }
  ImageU8 img(width, height, channels);
  file.read(reinterpret_cast<char*>(img.data()),
            static_cast<std::streamsize>(img.size()));
  if (file.gcount() != static_cast<std::streamsize>(img.size()) ||
      FaultFires(FaultPoint::kTruncatedFile)) {
    return Status::IoError("truncated PNM payload: " + path);
  }
  // Models bit-rot between sensor and consumer: the read itself succeeds.
  MaybeCorruptBytes(img.data(), img.size());
  return img;
}

}  // namespace snor
