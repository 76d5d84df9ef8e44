#include "core/classifiers.h"

#include <algorithm>
#include <cmath>

#include "core/feature_bank.h"

namespace snor {
namespace {

constexpr double kHuge = kUnusableScore;

/// Combines per-view modality scores into theta: alpha*S + beta*C when
/// both modalities are live, the surviving modality alone otherwise.
/// Entries stay kUnusableScore when a required score is unusable.
std::vector<double> AssembleHybridTheta(const HybridScores& scores,
                                        double alpha, double beta,
                                        bool shape_live, bool color_live) {
  const std::size_t n = scores.shape.size();
  std::vector<double> theta(n, kHuge);
  for (std::size_t i = 0; i < n; ++i) {
    if (shape_live && color_live) {
      if (scores.shape[i] < kHuge && scores.color[i] < kHuge) {
        theta[i] = HybridTheta(alpha, scores.shape[i], beta, scores.color[i]);
      }
    } else if (shape_live) {
      theta[i] = scores.shape[i];
    } else if (color_live) {
      theta[i] = scores.color[i];
    }
  }
  return theta;
}

}  // namespace

void DegradationStats::Record(Degradation degradation) {
  switch (degradation) {
    case Degradation::kNone:
      break;
    case Degradation::kShapeOnly:
      ++shape_only;
      break;
    case Degradation::kColorOnly:
      ++color_only;
      break;
    case Degradation::kFallback:
      ++fallback;
      break;
  }
}

double HybridColorDistance(const ColorHistogram& a, const ColorHistogram& b,
                           HistCompareMethod method) {
  return HybridColorDistanceFromScore(CompareHistograms(a, b, method),
                                      method);
}

double HybridColorDistanceFromScore(double score, HistCompareMethod method) {
  if (!IsSimilarityMetric(method)) return score;
  return 1.0 / std::max(score, 1e-6);
}

MatchOutcome ArgminOutcome(const PartialBest& best, ObjectClass fallback) {
  if (!best.found) return {fallback, Degradation::kFallback};
  return {best.label, Degradation::kNone};
}

MatchOutcome HybridOutcome(const HybridScores& scores, double alpha,
                           double beta, HybridStrategy strategy,
                           const FeatureBank& bank, ObjectClass fallback) {
  // A modality whose every view score is poisoned has collapsed for this
  // input; the surviving modality alone drives theta.
  const bool shape_live = scores.use_shape && scores.shape_usable > 0;
  const bool color_live = scores.use_color && scores.color_usable > 0;
  if (!shape_live && !color_live) return {fallback, Degradation::kFallback};
  const std::vector<double> theta =
      AssembleHybridTheta(scores, alpha, beta, shape_live, color_live);
  MatchOutcome outcome;
  outcome.label = BankHybridArgminLabel(theta, bank, strategy, fallback);
  if (shape_live != color_live) {
    outcome.degradation =
        shape_live ? Degradation::kShapeOnly : Degradation::kColorOnly;
  }
  return outcome;
}

bool ShapeModalityUsable(const ImageFeatures& input) {
  if (!input.valid) return false;
  for (double h : input.hu) {
    if (!std::isfinite(h)) return false;
  }
  return true;
}

bool ColorModalityUsable(const ImageFeatures& input) {
  double mass = 0.0;
  for (double b : input.histogram.bins()) {
    if (!std::isfinite(b) || b < 0.0) return false;
    mass += b;
  }
  return mass > 0.0;
}

MatchingClassifier::MatchingClassifier(
    const std::vector<ImageFeatures>& gallery)
    : bank_(std::make_unique<const FeatureBank>(PackFeatureBank(gallery))) {}

MatchingClassifier::~MatchingClassifier() = default;

std::vector<ObjectClass> MatchingClassifier::ClassifyAll(
    const std::vector<ImageFeatures>& inputs) {
  std::vector<ObjectClass> predictions;
  predictions.reserve(inputs.size());
  for (const auto& input : inputs) predictions.push_back(Classify(input));
  return predictions;
}

ObjectClass MatchingClassifier::FallbackLabel() const {
  if (bank_->empty()) return ClassFromIndex(0);
  return bank_->labels.front();
}

RandomBaselineClassifier::RandomBaselineClassifier(
    const std::vector<ImageFeatures>& gallery, std::uint64_t seed)
    : MatchingClassifier(gallery), rng_(seed) {}

ObjectClass RandomBaselineClassifier::Classify(
    const ImageFeatures& /*input*/) {
  return ClassFromIndex(static_cast<int>(rng_.Index(kNumClasses)));
}

ShapeOnlyClassifier::ShapeOnlyClassifier(
    const std::vector<ImageFeatures>& gallery, ShapeMatchMethod method)
    : MatchingClassifier(gallery), method_(method) {}

ObjectClass ShapeOnlyClassifier::Classify(const ImageFeatures& input) {
  PartialBest best;
  if (ShapeModalityUsable(input)) {
    best = BankShapeArgminOverRange(input, bank(), 0, bank().size(), method_);
  }
  const MatchOutcome outcome = ArgminOutcome(best, FallbackLabel());
  degradation_.Record(outcome.degradation);
  return outcome.label;
}

ColorOnlyClassifier::ColorOnlyClassifier(
    const std::vector<ImageFeatures>& gallery, HistCompareMethod method)
    : MatchingClassifier(gallery), method_(method) {}

ObjectClass ColorOnlyClassifier::Classify(const ImageFeatures& input) {
  PartialBest best;
  if (input.valid) {
    best = BankColorArgbestOverRange(input, bank(), 0, bank().size(), method_);
  }
  const MatchOutcome outcome = ArgminOutcome(best, FallbackLabel());
  degradation_.Record(outcome.degradation);
  return outcome.label;
}

HybridClassifier::HybridClassifier(const std::vector<ImageFeatures>& gallery,
                                   ShapeMatchMethod shape_method,
                                   HistCompareMethod color_method,
                                   double alpha, double beta,
                                   HybridStrategy strategy)
    : MatchingClassifier(gallery),
      shape_method_(shape_method),
      color_method_(color_method),
      alpha_(alpha),
      beta_(beta),
      strategy_(strategy) {}

HybridScores HybridClassifier::ScoreViews(const ImageFeatures& input,
                                          bool use_shape,
                                          bool use_color) const {
  HybridScores scores(bank().size(), use_shape, use_color);
  BankHybridScoresOverRange(input, bank(), 0, bank().size(), shape_method_,
                            color_method_, use_shape, use_color,
                            &scores.shape, &scores.color,
                            &scores.shape_usable, &scores.color_usable);
  return scores;
}

std::vector<double> HybridClassifier::ViewScores(
    const ImageFeatures& input) const {
  const bool usable = ShapeModalityUsable(input) && ColorModalityUsable(input);
  const HybridScores scores = ScoreViews(input, usable, usable);
  return AssembleHybridTheta(scores, alpha_, beta_,
                             usable && scores.shape_usable > 0,
                             usable && scores.color_usable > 0);
}

ObjectClass HybridClassifier::Classify(const ImageFeatures& input) {
  // Graceful degradation: a frame with one poisoned modality is matched
  // on the surviving one and recorded, instead of failing outright.
  const bool use_shape = ShapeModalityUsable(input);
  const bool use_color = ColorModalityUsable(input);
  const HybridScores scores =
      use_shape || use_color ? ScoreViews(input, use_shape, use_color)
                             : HybridScores(0, false, false);
  const MatchOutcome outcome = HybridOutcome(scores, alpha_, beta_, strategy_,
                                             bank(), FallbackLabel());
  degradation_.Record(outcome.degradation);
  return outcome.label;
}

}  // namespace snor
