#ifndef SNOR_CORE_FEATURE_CACHE_H_
#define SNOR_CORE_FEATURE_CACHE_H_

#include <vector>

#include "core/preprocess.h"
#include "data/dataset.h"
#include "features/histogram.h"
#include "util/status.h"

namespace snor {

/// \brief Feature-extraction options shared by the matching pipelines.
struct FeatureOptions {
  PreprocessOptions preprocess;
  /// RGB histogram bins per channel.
  int hist_bins = 8;
  /// Mask the histogram to object pixels (non-background) inside the
  /// crop. The paper computes histograms over the whole crop; masking is
  /// the ablation in bench/ablation_sweeps.
  bool mask_histogram = false;
  /// Compute the histogram in HSV instead of RGB (illumination-robustness
  /// ablation; the paper uses RGB).
  bool use_hsv = false;
};

/// \brief Per-image cached features consumed by the classifiers.
///
/// Every member is owned by value — the struct never points into a bank
/// or dataset, so copies are always safe. Callers that pass `const
/// ImageFeatures*` query pointers (BatchEngine::ClassifyBatch) retain
/// ownership; those pointers are not kept past the call.
struct ImageFeatures {
  ObjectClass label = ObjectClass::kChair;
  int model_id = 0;
  /// Hu moments of the dominant contour; valid only when preprocessing
  /// found a component.
  HuMoments hu{};
  bool valid = false;
  /// L1-normalized RGB histogram of the cropped object.
  ColorHistogram histogram{8};
  /// Why extraction failed when `valid` is false: `NotFound` for the
  /// legacy no-foreground case, `Unavailable`/`IoError` when the item
  /// could not be ingested at all (the latter are *skipped* by batch
  /// evaluation instead of fallback-classified). Not serialized.
  Status status;
};

/// Preprocesses every item of a dataset and extracts its shape and colour
/// features. Items whose preprocessing fails are marked invalid with a
/// per-item `status` (they still occupy a slot so indices align with the
/// dataset); the batch never aborts on a bad item.
[[nodiscard]] std::vector<ImageFeatures> ComputeFeatures(
    const Dataset& dataset, const FeatureOptions& options);

}  // namespace snor

#endif  // SNOR_CORE_FEATURE_CACHE_H_
