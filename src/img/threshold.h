#ifndef SNOR_IMG_THRESHOLD_H_
#define SNOR_IMG_THRESHOLD_H_

#include <cstdint>

#include "img/image.h"

namespace snor {

/// \brief Thresholding mode, mirroring OpenCV's THRESH_BINARY /
/// THRESH_BINARY_INV.
enum class ThresholdMode {
  /// dst = maxval if src > thresh else 0.
  kBinary,
  /// dst = 0 if src > thresh else maxval.
  kBinaryInv,
};

/// Applies a global binary threshold to a single-channel image.
ImageU8 Threshold(const ImageU8& gray, std::uint8_t thresh,
                  std::uint8_t maxval, ThresholdMode mode);

/// `Threshold(RgbToGray(rgb), thresh, maxval, mode)` in one pass over a
/// 3-channel image, without the gray image: a pixel is above `thresh`
/// when 299 R + 587 G + 114 B > 1000 thresh + 500, and a sum equal to
/// that bound is decided by `Bt601Gray`.
ImageU8 ThresholdRgb(const ImageU8& rgb, std::uint8_t thresh,
                     std::uint8_t maxval, ThresholdMode mode);

/// Computes Otsu's optimal global threshold for a single-channel image
/// (maximizes between-class variance of the intensity histogram).
std::uint8_t OtsuThreshold(const ImageU8& gray);

/// Convenience: Otsu threshold followed by binarization.
ImageU8 ThresholdOtsu(const ImageU8& gray, ThresholdMode mode,
                      std::uint8_t maxval = 255);

}  // namespace snor

#endif  // SNOR_IMG_THRESHOLD_H_
