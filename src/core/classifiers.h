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
};

/// \brief Base class for gallery-matching classifiers: the predicted label
/// comes from the reference view(s) optimising a similarity or distance
/// function against the input.
///
/// Construction tolerates an empty gallery (every prediction is then the
/// fallback label); use `MakeClassifier` for a validating factory.
class MatchingClassifier {
 public:
  explicit MatchingClassifier(std::vector<ImageFeatures> gallery);
  virtual ~MatchingClassifier() = default;

  /// Predicts the class of one input's features. Never fails: degraded
  /// inputs fall back to the surviving modality (see `degradation()`).
  virtual ObjectClass Classify(const ImageFeatures& input) = 0;

  /// Predicts every input (convenience wrapper).
  [[nodiscard]] std::vector<ObjectClass> ClassifyAll(
      const std::vector<ImageFeatures>& inputs);

  const std::vector<ImageFeatures>& gallery() const { return gallery_; }

  /// How often Classify had to degrade since construction.
  const DegradationStats& degradation() const { return degradation_; }

 protected:
  /// Deterministic fallback when no gallery view produces a usable score.
  ObjectClass FallbackLabel() const;

  DegradationStats degradation_;

 private:
  std::vector<ImageFeatures> gallery_;
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

/// Shape-only partial argmin over gallery views [begin, end): skips
/// invalid views and non-finite (poisoned) scores, keeps the first strict
/// minimum. Exactly the loop body of ShapeOnlyClassifier::Classify.
[[nodiscard]] PartialBest ShapeArgminOverRange(
    const ImageFeatures& input, const std::vector<ImageFeatures>& gallery,
    std::size_t begin, std::size_t end, ShapeMatchMethod method);

/// Colour-only partial arg-optimum over gallery views [begin, end):
/// maximises similarity metrics, minimises distance metrics, skipping
/// invalid views and non-finite scores. Exactly the loop body of
/// ColorOnlyClassifier::Classify.
[[nodiscard]] PartialBest ColorArgbestOverRange(
    const ImageFeatures& input, const std::vector<ImageFeatures>& gallery,
    std::size_t begin, std::size_t end, HistCompareMethod method);

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

/// Fills `shape_scores`/`color_scores` (pre-sized to the gallery, filled
/// with kUnusableScore) for gallery views [begin, end) and counts the
/// usable scores of each requested modality. The per-view arithmetic is
/// the one the HybridClassifier runs, so a sharded fill produces
/// bit-identical score vectors.
void ComputeHybridScoresOverRange(
    const ImageFeatures& input, const std::vector<ImageFeatures>& gallery,
    std::size_t begin, std::size_t end, ShapeMatchMethod shape_method,
    HistCompareMethod color_method, bool use_shape, bool use_color,
    std::vector<double>* shape_scores, std::vector<double>* color_scores,
    std::size_t* shape_usable, std::size_t* color_usable);

/// Combines per-view modality scores into theta: alpha*S + beta*C when
/// both modalities are live, the surviving modality alone otherwise.
/// Entries stay kUnusableScore when a required score is unusable.
[[nodiscard]] std::vector<double> AssembleHybridTheta(
    const std::vector<double>& shape_scores,
    const std::vector<double>& color_scores, double alpha, double beta,
    bool shape_live, bool color_live);

/// The three argmin strategies of §3.2 over a per-view theta vector
/// (index-aligned with `gallery`); `fallback` wins when no view is
/// usable. Shared by HybridClassifier and the serve-side BatchEngine.
[[nodiscard]] ObjectClass HybridArgminLabel(
    const std::vector<double>& theta,
    const std::vector<ImageFeatures>& gallery, HybridStrategy strategy,
    ObjectClass fallback);

/// \brief Uniform random label assignment (the paper's reference baseline).
class RandomBaselineClassifier : public MatchingClassifier {
 public:
  RandomBaselineClassifier(std::vector<ImageFeatures> gallery,
                           std::uint64_t seed);

  ObjectClass Classify(const ImageFeatures& input) override;

 private:
  Rng rng_;
};

/// \brief Shape-only matching: Hu-moment `MatchShapes` distance, argmin
/// over all gallery views (§3.2, "Shape only L1/L2/L3").
class ShapeOnlyClassifier : public MatchingClassifier {
 public:
  ShapeOnlyClassifier(std::vector<ImageFeatures> gallery,
                      ShapeMatchMethod method);

  ObjectClass Classify(const ImageFeatures& input) override;

 private:
  ShapeMatchMethod method_;
};

/// \brief Colour-only matching: RGB-histogram comparison, arg-optimum over
/// all gallery views (§3.2, "Color only ...").
class ColorOnlyClassifier : public MatchingClassifier {
 public:
  ColorOnlyClassifier(std::vector<ImageFeatures> gallery,
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
  HybridClassifier(std::vector<ImageFeatures> gallery,
                   ShapeMatchMethod shape_method,
                   HistCompareMethod color_method, double alpha, double beta,
                   HybridStrategy strategy);

  /// Classifies with graceful degradation: when one modality is unusable
  /// for the input (missing contour, poisoned NaN scores, empty
  /// histogram) the surviving modality alone drives the argmin and the
  /// degradation is recorded, instead of the frame failing.
  ObjectClass Classify(const ImageFeatures& input) override;

  /// The per-view theta scores for one input (exposed for tests and
  /// diagnostics); index-aligned with gallery(). Views whose score is
  /// non-finite (e.g. an injected NaN) are reported as unusable (a huge
  /// positive sentinel that argmin never selects).
  [[nodiscard]] std::vector<double> ViewScores(const ImageFeatures& input) const;

 private:
  /// Per-view theta restricted to the usable modalities. On return,
  /// `*shape_live`/`*color_live` (optional) say whether each requested
  /// modality actually contributed — a modality whose every view score
  /// is poisoned collapses and the survivor drives theta alone.
  std::vector<double> ScoresForModes(const ImageFeatures& input,
                                     bool use_shape, bool use_color,
                                     bool* shape_live = nullptr,
                                     bool* color_live = nullptr) const;

  ObjectClass ArgminLabel(const std::vector<double>& theta) const;

  ShapeMatchMethod shape_method_;
  HistCompareMethod color_method_;
  double alpha_;
  double beta_;
  HybridStrategy strategy_;
};

}  // namespace snor

#endif  // SNOR_CORE_CLASSIFIERS_H_
