#include "core/feature_cache.h"

#include "img/color.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace snor {

std::vector<ImageFeatures> ComputeFeatures(const Dataset& dataset,
                                           const FeatureOptions& options) {
  SNOR_TRACE_SPAN("core.feature_cache.build");
  static obs::Counter& items_counter =  // GUARDED_BY(atomic)
      obs::MetricsRegistry::Global().counter("core.feature_cache.items");
  static obs::Counter& invalid_counter =  // GUARDED_BY(atomic)
      obs::MetricsRegistry::Global().counter("core.feature_cache.invalid");
  items_counter.Increment(dataset.size());

  // Every slot starts from one blank whose histogram holds no bins, so
  // the slots cost no histogram allocation: each item below assigns its
  // own, computed (valid) or zero (invalid).
  ImageFeatures blank;
  blank.histogram.bins() = std::vector<double>();
  std::vector<ImageFeatures> features(dataset.size(), blank);  // GUARDED_BY(per_worker_slot)

  const PreprocessOptions& preprocess = options.preprocess;

  // Items are independent; parallel extraction is bit-identical to the
  // sequential order because each worker writes only its own slot.
  ParallelFor(dataset.size(), [&](std::size_t idx) {
    const LabeledImage& item = dataset.items[idx];
    ImageFeatures& f = features[idx];
    f.label = item.label;
    f.model_id = item.model_id;

    auto mark_invalid = [&](Status status) {
      f.status = std::move(status);
      f.histogram = ColorHistogram(options.hist_bins);
      invalid_counter.Increment();
    };

    // Ingestion is the stage where a robot reads a frame off a sensor or
    // disk; an armed io-read fault marks the item unavailable (skipped
    // and recorded by batch evaluation) instead of killing the batch.
    if (FaultFires(FaultPoint::kIoRead)) {
      return mark_invalid(FaultStatus(FaultPoint::kIoRead,
                                      StrFormat("ingest item %zu", idx)));
    }

    auto result = Preprocess(item.image, preprocess);
    if (!result.ok()) return mark_invalid(result.status());
    SNOR_TRACE_SPAN("features.histogram.compute");
    const PreprocessResult& pre = result.value();
    f.hu = pre.hu;
    f.valid = true;

    // The histogram may be computed in HSV, but background detection
    // always happens in the original RGB crop.
    const ImageU8& rgb_crop = pre.cropped_rgb;
    const ImageU8 hsv_crop = options.use_hsv ? RgbToHsv(rgb_crop) : ImageU8();
    const ImageU8& hist_crop = options.use_hsv ? hsv_crop : rgb_crop;
    if (options.mask_histogram) {
      // Object-only histogram: exclude pixels matching the background.
      const std::uint8_t bg = preprocess.white_background ? 255 : 0;
      ImageU8 mask(rgb_crop.width(), rgb_crop.height(), 1, 0);
      for (int y = 0; y < rgb_crop.height(); ++y) {
        for (int x = 0; x < rgb_crop.width(); ++x) {
          const bool is_bg = rgb_crop.at(y, x, 0) == bg &&
                             rgb_crop.at(y, x, 1) == bg &&
                             rgb_crop.at(y, x, 2) == bg;
          if (!is_bg) mask.at(y, x) = 255;
        }
      }
      f.histogram =
          ColorHistogram::Compute(hist_crop, &mask, options.hist_bins);
    } else {
      f.histogram =
          ColorHistogram::Compute(hist_crop, nullptr, options.hist_bins);
    }
    f.histogram.NormalizeL1();
  });
  return features;
}

}  // namespace snor
