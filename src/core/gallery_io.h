#ifndef SNOR_CORE_GALLERY_IO_H_
#define SNOR_CORE_GALLERY_IO_H_

#include <string>
#include <vector>

#include "core/feature_cache.h"
#include "util/status.h"

namespace snor {

/// Serializes a feature gallery (labels, model ids, Hu moments, colour
/// histograms) to a binary file, so a deployed robot can load the
/// reference gallery without re-rendering or re-processing images. Any
/// old file at `path` is replaced atomically (WriteFileAtomically).
[[nodiscard]] Status SaveFeatures(const std::vector<ImageFeatures>& features,
                                  const std::string& path);

/// Restores a gallery written by SaveFeatures. Fails on bad magic,
/// version mismatch, or truncation.
[[nodiscard]] Result<std::vector<ImageFeatures>> LoadFeatures(
    const std::string& path);

}  // namespace snor

#endif  // SNOR_CORE_GALLERY_IO_H_
