#ifndef SNOR_CORE_EXPERIMENT_H_
#define SNOR_CORE_EXPERIMENT_H_

#include <optional>
#include <string>
#include <vector>

#include "core/classifiers.h"
#include "core/evaluation.h"
#include "core/feature_cache.h"
#include "data/dataset.h"
#include "util/status.h"

namespace snor {

namespace obs {
class Counter;
}  // namespace obs

/// \brief One named matching configuration from Table 2.
struct ApproachSpec {
  enum class Kind { kBaseline, kShape, kColor, kHybrid };

  Kind kind = Kind::kBaseline;
  ShapeMatchMethod shape = ShapeMatchMethod::kI3;
  HistCompareMethod color = HistCompareMethod::kHellinger;
  HybridStrategy strategy = HybridStrategy::kWeightedSum;
  double alpha = 0.3;
  double beta = 0.7;

  /// The row label used in the paper's Table 2.
  std::string DisplayName() const;
};

/// The 11 Table-2 rows: baseline; Hu L1/L2/L3; histogram Correlation /
/// Chi-square / Intersection / Hellinger; hybrid weighted-sum /
/// micro-average / macro-average (L3 + Hellinger, the reported best combo).
std::vector<ApproachSpec> Table2Approaches(double alpha = 0.3,
                                           double beta = 0.7);

/// Checks that a packed gallery can serve `spec`: `InvalidArgument`
/// ("cannot <action> over an empty gallery") when it is empty, and
/// `Unavailable` when a non-baseline approach has no valid view to match
/// against — a truncated gallery file or an all-faulted load must not
/// take down the caller. The one gallery check of `MakeClassifier` and
/// `serve::BatchEngine::CreateFromBank`.
[[nodiscard]] Status ValidateGallery(const ApproachSpec& spec,
                                     const FeatureBank& bank,
                                     const std::string& action);

/// Builds the classifier described by `spec` over a gallery, failing as
/// `ValidateGallery` does.
[[nodiscard]] Result<std::unique_ptr<MatchingClassifier>> MakeClassifier(
    const ApproachSpec& spec, const std::vector<ImageFeatures>& gallery,
    std::uint64_t baseline_seed = 2019);

/// \brief What one approach run classifies: the eligible inputs in order,
/// their truth labels, and the per-item error ledger.
struct RunLedger {
  /// Inputs presented to the run, including skipped ones.
  std::size_t attempted = 0;
  std::vector<const ImageFeatures*> eligible;
  /// Index-aligned with `eligible`.
  std::vector<ObjectClass> truth;
  std::vector<ItemError> errors;
};

/// The skip/ledger rule of `ExperimentContext::RunApproach` and its warm
/// twin `serve::RunApproachBatched`: ingest failures are skipped, recorded
/// and counted on `skipped`; preprocess failures stay eligible (they are
/// fallback-classified, as in the paper) and are recorded.
[[nodiscard]] RunLedger BuildRunLedger(
    const std::vector<ImageFeatures>& inputs, obs::Counter& skipped);

/// Scores a run's predictions (index-aligned with `ledger.eligible`),
/// measuring `timing.score_s`, and fills the run-level report fields.
[[nodiscard]] EvalReport FinishRunReport(
    RunLedger ledger, const std::vector<ObjectClass>& predictions,
    const DegradationStats& degradation, StageTiming timing);

/// \brief Experiment-wide knobs shared by the bench harnesses.
struct ExperimentConfig {
  /// Canvas size of generated images.
  int canvas_size = 96;
  /// Fraction of the 6,934-item NYU set to generate (1.0 = paper scale).
  double nyu_fraction = 1.0;
  /// RGB histogram bins per channel.
  int hist_bins = 8;
  /// Hybrid weights (paper's reported best: 0.3 / 0.7).
  double alpha = 0.3;
  double beta = 0.7;
  /// Master generation seed.
  std::uint64_t seed = 2019;
};

/// \brief Lazily builds the three datasets and their feature caches so
/// that multiple experiments share the work.
class ExperimentContext {
 public:
  explicit ExperimentContext(const ExperimentConfig& config);

  const ExperimentConfig& config() const { return config_; }

  const Dataset& Sns1();
  const Dataset& Sns2();
  const Dataset& Nyu();

  const std::vector<ImageFeatures>& Sns1Features();
  const std::vector<ImageFeatures>& Sns2Features();
  const std::vector<ImageFeatures>& NyuFeatures();

  /// Runs one approach, matching `inputs` against `gallery`. Bad inputs
  /// never abort the run: unavailable items (ingest faults) are skipped
  /// and recorded in the report's error ledger, preprocess failures are
  /// fallback-classified and recorded, and modality degradations are
  /// counted. Fails only when the whole run is impossible (no usable
  /// gallery).
  [[nodiscard]] Result<EvalReport> RunApproach(
      const ApproachSpec& spec, const std::vector<ImageFeatures>& inputs,
      const std::vector<ImageFeatures>& gallery);

  /// Drops the lazily built feature caches (datasets stay). Each dropped
  /// cache counts as a `core.feature_cache.evictions` metric event; the
  /// next feature access recomputes (and counts a miss).
  void ClearFeatureCaches();

  /// The extraction options used for each dataset's feature cache
  /// (ShapeNet sets render on white, NYU on dark); exposed so the serving
  /// layer can fingerprint feature stores against the same options.
  FeatureOptions FeatureOptionsFor(bool white_background) const;

 private:

  ExperimentConfig config_;
  std::optional<Dataset> sns1_;
  std::optional<Dataset> sns2_;
  std::optional<Dataset> nyu_;
  std::optional<std::vector<ImageFeatures>> sns1_features_;
  std::optional<std::vector<ImageFeatures>> sns2_features_;
  std::optional<std::vector<ImageFeatures>> nyu_features_;
};

/// Extracts the truth labels from a feature vector (index-aligned).
std::vector<ObjectClass> TruthLabels(const std::vector<ImageFeatures>& items);

}  // namespace snor

#endif  // SNOR_CORE_EXPERIMENT_H_
