#include "core/preprocess.h"

#include "img/color.h"
#include "img/threshold.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace snor {

Result<PreprocessResult> Preprocess(const ImageU8& rgb,
                                    const PreprocessOptions& options) {
  SNOR_TRACE_SPAN("core.preprocess");
  static obs::Histogram& latency_us =
      obs::MetricsRegistry::Global().histogram("core.preprocess.latency_us");
  const obs::ScopedLatencyUs latency(latency_us);

  if (rgb.empty()) return Status::InvalidArgument("empty input image");

  // Global binary thresholding of the gray image; inverse when the
  // background is white so that the object becomes the foreground in both
  // cases (§3.2). A fixed threshold reads RGB directly.
  ImageU8 binary;
  {
    SNOR_TRACE_SPAN("core.preprocess.threshold");
    const ThresholdMode mode = options.white_background
                                   ? ThresholdMode::kBinaryInv
                                   : ThresholdMode::kBinary;
    if (options.use_otsu) {
      const ImageU8 gray = rgb.channels() == 3 ? RgbToGray(rgb) : rgb;
      binary = Threshold(gray, OtsuThreshold(gray), 255, mode);
    } else {
      const std::uint8_t thresh = options.white_background
                                      ? options.white_threshold
                                      : options.black_threshold;
      binary = rgb.channels() == 3 ? ThresholdRgb(rgb, thresh, 255, mode)
                                   : Threshold(rgb, thresh, 255, mode);
    }
  }

  PreprocessResult result;
  {
    SNOR_TRACE_SPAN("core.preprocess.contour");
    result.contour = FindLargestContour(binary, options.min_component_pixels);
  }
  if (result.contour.empty()) {
    static obs::Counter& no_foreground =
        obs::MetricsRegistry::Global().counter("core.preprocess.no_foreground");
    no_foreground.Increment();
    return Status::NotFound("no foreground component after thresholding");
  }

  SNOR_TRACE_SPAN("core.preprocess.crop");
  result.hu = ComputeHuMoments(ContourMoments(result.contour));
  const Rect bb = BoundingRect(result.contour);
  result.cropped_rgb = Crop(rgb, bb.x, bb.y, bb.width, bb.height);
  return result;
}

}  // namespace snor
