#ifndef SNOR_CORE_PREPROCESS_H_
#define SNOR_CORE_PREPROCESS_H_

#include "geometry/contour.h"
#include "geometry/moments.h"
#include "img/image.h"
#include "util/status.h"

namespace snor {

/// \brief Options for the paper's §3.2 preprocessing chain.
struct PreprocessOptions {
  /// true when the input lies on a white background (ShapeNet 2D views,
  /// thresholded with the *inverse* binary rule); false for black-masked
  /// inputs (NYU crops).
  bool white_background = true;
  /// Global threshold for white backgrounds (object = pixels below).
  std::uint8_t white_threshold = 245;
  /// Global threshold for black backgrounds (object = pixels above).
  std::uint8_t black_threshold = 10;
  /// Derive the threshold with Otsu's method instead of the fixed values
  /// (ablation knob; the paper uses a fixed global threshold).
  bool use_otsu = false;
  /// Components smaller than this many pixels are ignored.
  int min_component_pixels = 9;
};

/// \brief Output of preprocessing: the object crop and its shape features.
struct PreprocessResult {
  /// Input cropped to the bounding rectangle of the largest contour.
  ImageU8 cropped_rgb;
  /// The largest-area outer contour (in original image coordinates).
  Contour contour;
  /// Hu moments of that contour.
  HuMoments hu{};
};

/// Runs the paper's preprocessing: grayscale conversion, global binary
/// thresholding (inverse for white backgrounds), contour detection, and
/// cropping to the contour of largest area (the first in raster order
/// among equal areas). Fails with NotFound when no foreground component
/// survives.
[[nodiscard]] Result<PreprocessResult> Preprocess(
    const ImageU8& rgb, const PreprocessOptions& options = {});

}  // namespace snor

#endif  // SNOR_CORE_PREPROCESS_H_
