#ifndef SNOR_CORE_CLASSIFIERS_H_
#define SNOR_CORE_CLASSIFIERS_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/feature_cache.h"
#include "features/histogram.h"
#include "geometry/moments.h"
#include "util/rng.h"
#include "util/status.h"

namespace snor {

/// \brief Argmin aggregation strategies for the hybrid pipeline (§3.2).
enum class HybridStrategy {
  /// argmin over every individual view score (the paper's Theta_T).
  kWeightedSum,
  /// argmin over per-model score averages (micro-average, Theta_Z).
  kMicroAverage,
  /// argmin over per-class score averages (macro-average, Theta_C).
  kMacroAverage,
};

/// \brief How one query was answered.
enum class Degradation {
  /// On every modality the approach asked for.
  kNone,
  /// Colour modality unusable for the input; matched on shape alone.
  kShapeOnly,
  /// Shape modality unusable for the input; matched on colour alone.
  kColorOnly,
  /// No view produced a usable score; the fallback label was used.
  kFallback,
};

/// \brief Counters describing how often a classifier had to shed a
/// modality to keep answering (graceful degradation, never a crash).
struct DegradationStats {
  /// Colour modality unusable for the input; matched on shape alone.
  std::uint64_t shape_only = 0;
  /// Shape modality unusable for the input; matched on colour alone.
  std::uint64_t color_only = 0;
  /// Neither modality usable; the deterministic fallback label was used.
  std::uint64_t fallback = 0;

  std::uint64_t total() const { return shape_only + color_only + fallback; }

  /// Counts one query's outcome.
  void Record(Degradation degradation);
};

struct FeatureBank;  // core/feature_bank.h

/// \brief Base class for gallery-matching classifiers: the predicted label
/// comes from the reference view(s) optimising a similarity or distance
/// function against the input.
///
/// Construction packs the gallery into a `FeatureBank` once; every scan
/// runs the bank kernels on the caller's thread. It tolerates an empty
/// gallery (every prediction is then the fallback label); use
/// `MakeClassifier` for a validating factory.
class MatchingClassifier {
 public:
  explicit MatchingClassifier(const std::vector<ImageFeatures>& gallery);
  virtual ~MatchingClassifier();

  /// Predicts the class of one input's features. Never fails: degraded
  /// inputs fall back to the surviving modality (see `degradation()`).
  virtual ObjectClass Classify(const ImageFeatures& input) = 0;

  /// Predicts every input (convenience wrapper).
  [[nodiscard]] std::vector<ObjectClass> ClassifyAll(
      const std::vector<ImageFeatures>& inputs);

  /// The packed gallery.
  const FeatureBank& bank() const { return *bank_; }

  /// How often Classify had to degrade since construction.
  const DegradationStats& degradation() const { return degradation_; }

 protected:
  /// Deterministic fallback when no gallery view produces a usable score.
  ObjectClass FallbackLabel() const;

  DegradationStats degradation_;

 private:
  std::unique_ptr<const FeatureBank> bank_;
};

/// True when the input carries a usable contour-shape modality (valid
/// preprocessing and finite Hu moments).
[[nodiscard]] bool ShapeModalityUsable(const ImageFeatures& input);

/// True when the input carries a usable colour modality (finite histogram
/// with positive mass).
[[nodiscard]] bool ColorModalityUsable(const ImageFeatures& input);

/// Sentinel marking a per-view score as unusable (poisoned, invalid view,
/// or collapsed modality). Argmin reductions never select it.
inline constexpr double kUnusableScore = std::numeric_limits<double>::max();

/// \brief Partial arg-optimum of one gallery range: the strictly best
/// usable view score seen while scanning the range in ascending index
/// order. Merging partials of contiguous ascending ranges with the same
/// strict comparison reproduces the sequential scan bit-for-bit, which is
/// what lets the sharded BatchEngine return cold-path-identical labels.
struct PartialBest {
  double score = 0.0;
  ObjectClass label = ObjectClass::kChair;
  /// False when no view in the range produced a usable score.
  bool found = false;
};

/// Colour comparison as a "smaller is better" score the way the paper
/// uses it in theta: distances pass through, similarities are inverted.
[[nodiscard]] double HybridColorDistance(const ColorHistogram& a,
                                         const ColorHistogram& b,
                                         HistCompareMethod method);

/// The inversion step of HybridColorDistance on a CompareHistograms
/// score; the SoA feature-bank kernels call this on their bank-row scores
/// so the similarity inversion lives in exactly one place.
[[nodiscard]] double HybridColorDistanceFromScore(double score,
                                                  HistCompareMethod method);

/// \brief One query's answer and how it degraded.
struct MatchOutcome {
  ObjectClass label = ObjectClass::kChair;
  Degradation degradation = Degradation::kNone;
};

/// The answer of a shape-only or colour-only approach from the query's
/// partial optimum over the whole gallery: the best view's label, or
/// `fallback` (a kFallback degradation) when no view produced a usable
/// score, including a query the approach could not score at all.
[[nodiscard]] MatchOutcome ArgminOutcome(const PartialBest& best,
                                         ObjectClass fallback);

/// \brief Per-view modality scores of one query for the hybrid pipeline,
/// index-aligned with the bank and filled by the Bank*HybridScores*
/// kernels. kUnusableScore marks a view whose score is unusable.
struct HybridScores {
  HybridScores(std::size_t num_views, bool shape_requested,
               bool color_requested)
      : use_shape(shape_requested),
        use_color(color_requested),
        shape(num_views, kUnusableScore),
        color(num_views, kUnusableScore) {}

  /// The modalities the query carries (and so the kernels score).
  bool use_shape;
  bool use_color;
  std::vector<double> shape;
  std::vector<double> color;
  /// Usable scores per modality.
  std::size_t shape_usable = 0;
  std::size_t color_usable = 0;
};

/// The hybrid answer (§3.2) from one query's per-view scores. A modality
/// whose every view score is unusable collapses and the surviving one
/// drives theta alone (a kShapeOnly / kColorOnly degradation); both live
/// give theta = alpha*S + beta*C; neither live gives `fallback`
/// (kFallback). `strategy` reduces theta over the bank's views.
[[nodiscard]] MatchOutcome HybridOutcome(const HybridScores& scores,
                                         double alpha, double beta,
                                         HybridStrategy strategy,
                                         const FeatureBank& bank,
                                         ObjectClass fallback);

/// \brief Uniform random label assignment (the paper's reference baseline).
class RandomBaselineClassifier : public MatchingClassifier {
 public:
  RandomBaselineClassifier(const std::vector<ImageFeatures>& gallery,
                           std::uint64_t seed);

  ObjectClass Classify(const ImageFeatures& input) override;

 private:
  Rng rng_;
};

/// \brief Shape-only matching: Hu-moment `MatchShapes` distance, argmin
/// over all gallery views (§3.2, "Shape only L1/L2/L3").
class ShapeOnlyClassifier : public MatchingClassifier {
 public:
  ShapeOnlyClassifier(const std::vector<ImageFeatures>& gallery,
                      ShapeMatchMethod method);

  ObjectClass Classify(const ImageFeatures& input) override;

 private:
  ShapeMatchMethod method_;
};

/// \brief Colour-only matching: RGB-histogram comparison, arg-optimum over
/// all gallery views (§3.2, "Color only ...").
class ColorOnlyClassifier : public MatchingClassifier {
 public:
  ColorOnlyClassifier(const std::vector<ImageFeatures>& gallery,
                      HistCompareMethod method);

  ObjectClass Classify(const ImageFeatures& input) override;

 private:
  HistCompareMethod method_;
};

/// \brief Hybrid matching: theta = alpha * S + beta * C with the three
/// argmin strategies of §3.2. For similarity-style colour metrics
/// (Correlation, Intersection) the inverse of C enters theta, matching
/// the paper.
class HybridClassifier : public MatchingClassifier {
 public:
  HybridClassifier(const std::vector<ImageFeatures>& gallery,
                   ShapeMatchMethod shape_method,
                   HistCompareMethod color_method, double alpha, double beta,
                   HybridStrategy strategy);

  /// Classifies with graceful degradation: when one modality is unusable
  /// for the input (missing contour, poisoned NaN scores, empty
  /// histogram) the surviving modality alone drives the argmin and the
  /// degradation is recorded, instead of the frame failing.
  ObjectClass Classify(const ImageFeatures& input) override;

  /// The per-view theta scores for one input (exposed for tests and
  /// diagnostics); index-aligned with bank(). Views whose score is
  /// non-finite (e.g. an injected NaN) are reported as unusable (a huge
  /// positive sentinel that argmin never selects).
  [[nodiscard]] std::vector<double> ViewScores(const ImageFeatures& input) const;

 private:
  /// Scores every view on the requested modalities.
  HybridScores ScoreViews(const ImageFeatures& input, bool use_shape,
                          bool use_color) const;

  ShapeMatchMethod shape_method_;
  HistCompareMethod color_method_;
  double alpha_;
  double beta_;
  HybridStrategy strategy_;
};

}  // namespace snor

#endif  // SNOR_CORE_CLASSIFIERS_H_
