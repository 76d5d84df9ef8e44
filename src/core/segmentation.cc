#include "core/segmentation.h"

#include "img/threshold.h"
#include "util/check.h"

namespace snor {

std::vector<SegmentedObject> SegmentFrame(
    const ImageU8& frame, const SegmentationOptions& options) {
  SNOR_CHECK(!frame.empty());
  const ImageU8 binary =
      frame.channels() == 3
          ? ThresholdRgb(frame, options.threshold, 255, ThresholdMode::kBinary)
          : Threshold(frame, options.threshold, 255, ThresholdMode::kBinary);
  const auto contours = FindContours(binary, options.min_pixels);

  std::vector<SegmentedObject> objects;
  for (const auto& contour : contours) {
    if (options.max_objects > 0 &&
        static_cast<int>(objects.size()) >= options.max_objects) {
      break;
    }
    SegmentedObject obj;
    obj.bbox = BoundingRect(contour);
    obj.contour = contour;
    obj.crop = Crop(frame, obj.bbox.x, obj.bbox.y, obj.bbox.width,
                    obj.bbox.height);
    objects.push_back(std::move(obj));
  }
  return objects;
}

}  // namespace snor
