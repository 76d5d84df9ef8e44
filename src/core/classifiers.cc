#include "core/classifiers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "util/check.h"
#include "util/fault.h"

namespace snor {
namespace {

constexpr double kHuge = kUnusableScore;

}  // namespace

double HybridColorDistance(const ColorHistogram& a, const ColorHistogram& b,
                           HistCompareMethod method) {
  return HybridColorDistanceFromScore(CompareHistograms(a, b, method),
                                      method);
}

double HybridColorDistanceFromScore(double score, HistCompareMethod method) {
  if (!IsSimilarityMetric(method)) return score;
  return 1.0 / std::max(score, 1e-6);
}

PartialBest ShapeArgminOverRange(const ImageFeatures& input,
                                 const std::vector<ImageFeatures>& gallery,
                                 std::size_t begin, std::size_t end,
                                 ShapeMatchMethod method) {
  PartialBest partial;
  partial.score = kHuge;
  for (std::size_t i = begin; i < end; ++i) {
    const ImageFeatures& view = gallery[i];
    if (!view.valid) continue;
    const double d = MaybePoisonScore(MatchShapes(input.hu, view.hu, method));
    if (!std::isfinite(d)) continue;  // Poisoned view: skip, don't crash.
    if (d < partial.score) {
      partial.score = d;
      partial.label = view.label;
      partial.found = true;
    }
  }
  return partial;
}

PartialBest ColorArgbestOverRange(const ImageFeatures& input,
                                  const std::vector<ImageFeatures>& gallery,
                                  std::size_t begin, std::size_t end,
                                  HistCompareMethod method) {
  const bool maximize = IsSimilarityMetric(method);
  PartialBest partial;
  partial.score = maximize ? -kHuge : kHuge;
  for (std::size_t i = begin; i < end; ++i) {
    const ImageFeatures& view = gallery[i];
    if (!view.valid) continue;
    const double c = CompareHistograms(input.histogram, view.histogram, method);
    if (!std::isfinite(c)) continue;  // Corrupt view: skip, don't crash.
    const bool better = maximize ? c > partial.score : c < partial.score;
    if (better) {
      partial.score = c;
      partial.label = view.label;
      partial.found = true;
    }
  }
  return partial;
}

void ComputeHybridScoresOverRange(
    const ImageFeatures& input, const std::vector<ImageFeatures>& gallery,
    std::size_t begin, std::size_t end, ShapeMatchMethod shape_method,
    HistCompareMethod color_method, bool use_shape, bool use_color,
    std::vector<double>* shape_scores, std::vector<double>* color_scores,
    std::size_t* shape_usable, std::size_t* color_usable) {
  for (std::size_t i = begin; i < end; ++i) {
    const ImageFeatures& view = gallery[i];
    if (!view.valid) continue;
    if (use_shape) {
      const double s =
          MaybePoisonScore(MatchShapes(input.hu, view.hu, shape_method));
      if (std::isfinite(s) && s < kHuge) {
        (*shape_scores)[i] = s;
        ++*shape_usable;
      }
    }
    if (use_color) {
      const double c =
          HybridColorDistance(input.histogram, view.histogram, color_method);
      if (std::isfinite(c)) {
        (*color_scores)[i] = c;
        ++*color_usable;
      }
    }
  }
}

std::vector<double> AssembleHybridTheta(
    const std::vector<double>& shape_scores,
    const std::vector<double>& color_scores, double alpha, double beta,
    bool shape_live, bool color_live) {
  const std::size_t n = shape_scores.size();
  std::vector<double> theta(n, kHuge);
  for (std::size_t i = 0; i < n; ++i) {
    if (shape_live && color_live) {
      if (shape_scores[i] < kHuge && color_scores[i] < kHuge) {
        theta[i] = alpha * shape_scores[i] + beta * color_scores[i];
      }
    } else if (shape_live) {
      theta[i] = shape_scores[i];
    } else if (color_live) {
      theta[i] = color_scores[i];
    }
  }
  return theta;
}

ObjectClass HybridArgminLabel(const std::vector<double>& theta,
                              const std::vector<ImageFeatures>& gallery,
                              HybridStrategy strategy, ObjectClass fallback) {
  switch (strategy) {
    case HybridStrategy::kWeightedSum: {
      double best = kHuge;
      ObjectClass best_label = fallback;
      for (std::size_t i = 0; i < theta.size(); ++i) {
        if (theta[i] < best) {
          best = theta[i];
          best_label = gallery[i].label;
        }
      }
      return best_label;
    }
    case HybridStrategy::kMicroAverage: {
      // Average theta per model (class, model_id), argmin over models.
      std::map<std::pair<int, int>, std::pair<double, int>> acc;
      for (std::size_t i = 0; i < theta.size(); ++i) {
        if (theta[i] >= kHuge) continue;
        auto& entry =
            acc[{ClassIndex(gallery[i].label), gallery[i].model_id}];
        entry.first += theta[i];
        entry.second += 1;
      }
      double best = kHuge;
      ObjectClass best_label = fallback;
      for (const auto& [key, entry] : acc) {
        const double mean = entry.first / entry.second;
        if (mean < best) {
          best = mean;
          best_label = ClassFromIndex(key.first);
        }
      }
      return best_label;
    }
    case HybridStrategy::kMacroAverage: {
      std::array<double, kNumClasses> sums{};
      std::array<int, kNumClasses> counts{};
      for (std::size_t i = 0; i < theta.size(); ++i) {
        if (theta[i] >= kHuge) continue;
        const auto c =
            static_cast<std::size_t>(ClassIndex(gallery[i].label));
        sums[c] += theta[i];
        ++counts[c];
      }
      double best = kHuge;
      ObjectClass best_label = fallback;
      for (int c = 0; c < kNumClasses; ++c) {
        if (counts[static_cast<std::size_t>(c)] == 0) continue;
        const double mean = sums[static_cast<std::size_t>(c)] /
                            counts[static_cast<std::size_t>(c)];
        if (mean < best) {
          best = mean;
          best_label = ClassFromIndex(c);
        }
      }
      return best_label;
    }
  }
  return fallback;
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

MatchingClassifier::MatchingClassifier(std::vector<ImageFeatures> gallery)
    : gallery_(std::move(gallery)) {}

std::vector<ObjectClass> MatchingClassifier::ClassifyAll(
    const std::vector<ImageFeatures>& inputs) {
  std::vector<ObjectClass> predictions;
  predictions.reserve(inputs.size());
  for (const auto& input : inputs) predictions.push_back(Classify(input));
  return predictions;
}

ObjectClass MatchingClassifier::FallbackLabel() const {
  if (gallery_.empty()) return ClassFromIndex(0);
  return gallery_.front().label;
}

RandomBaselineClassifier::RandomBaselineClassifier(
    std::vector<ImageFeatures> gallery, std::uint64_t seed)
    : MatchingClassifier(std::move(gallery)), rng_(seed) {}

ObjectClass RandomBaselineClassifier::Classify(
    const ImageFeatures& /*input*/) {
  return ClassFromIndex(static_cast<int>(rng_.Index(kNumClasses)));
}

ShapeOnlyClassifier::ShapeOnlyClassifier(std::vector<ImageFeatures> gallery,
                                         ShapeMatchMethod method)
    : MatchingClassifier(std::move(gallery)), method_(method) {}

ObjectClass ShapeOnlyClassifier::Classify(const ImageFeatures& input) {
  if (!ShapeModalityUsable(input)) {
    ++degradation_.fallback;
    return FallbackLabel();
  }
  const PartialBest best =
      ShapeArgminOverRange(input, gallery(), 0, gallery().size(), method_);
  return best.found ? best.label : FallbackLabel();
}

ColorOnlyClassifier::ColorOnlyClassifier(std::vector<ImageFeatures> gallery,
                                         HistCompareMethod method)
    : MatchingClassifier(std::move(gallery)), method_(method) {}

ObjectClass ColorOnlyClassifier::Classify(const ImageFeatures& input) {
  if (!input.valid) {
    ++degradation_.fallback;
    return FallbackLabel();
  }
  const PartialBest best =
      ColorArgbestOverRange(input, gallery(), 0, gallery().size(), method_);
  return best.found ? best.label : FallbackLabel();
}

HybridClassifier::HybridClassifier(std::vector<ImageFeatures> gallery,
                                   ShapeMatchMethod shape_method,
                                   HistCompareMethod color_method,
                                   double alpha, double beta,
                                   HybridStrategy strategy)
    : MatchingClassifier(std::move(gallery)),
      shape_method_(shape_method),
      color_method_(color_method),
      alpha_(alpha),
      beta_(beta),
      strategy_(strategy) {}

std::vector<double> HybridClassifier::ScoresForModes(
    const ImageFeatures& input, bool use_shape, bool use_color,
    bool* shape_live_out, bool* color_live_out) const {
  const std::size_t n = gallery().size();

  // Per-view raw scores of each requested modality; a non-finite score
  // (e.g. an injected NaN) marks that view's modality unusable.
  std::vector<double> shape_scores(n, kHuge);
  std::vector<double> color_scores(n, kHuge);
  std::size_t shape_usable = 0;
  std::size_t color_usable = 0;
  ComputeHybridScoresOverRange(input, gallery(), 0, n, shape_method_,
                               color_method_, use_shape, use_color,
                               &shape_scores, &color_scores, &shape_usable,
                               &color_usable);

  // A modality whose every view score is poisoned has collapsed for this
  // input; the surviving modality alone drives theta.
  const bool shape_live = use_shape && shape_usable > 0;
  const bool color_live = use_color && color_usable > 0;
  if (shape_live_out != nullptr) *shape_live_out = shape_live;
  if (color_live_out != nullptr) *color_live_out = color_live;

  return AssembleHybridTheta(shape_scores, color_scores, alpha_, beta_,
                             shape_live, color_live);
}

std::vector<double> HybridClassifier::ViewScores(
    const ImageFeatures& input) const {
  const bool usable = ShapeModalityUsable(input) && ColorModalityUsable(input);
  return ScoresForModes(input, usable, usable);
}

ObjectClass HybridClassifier::ArgminLabel(
    const std::vector<double>& theta) const {
  return HybridArgminLabel(theta, gallery(), strategy_, FallbackLabel());
}

ObjectClass HybridClassifier::Classify(const ImageFeatures& input) {
  const bool use_shape = ShapeModalityUsable(input);
  const bool use_color = ColorModalityUsable(input);

  // Graceful degradation: a frame with one poisoned modality is matched
  // on the surviving one and recorded, instead of failing outright.
  if (!use_shape && !use_color) {
    ++degradation_.fallback;
    return FallbackLabel();
  }
  bool shape_live = false;
  bool color_live = false;
  const std::vector<double> theta =
      ScoresForModes(input, use_shape, use_color, &shape_live, &color_live);
  if (!shape_live && !color_live) {
    ++degradation_.fallback;
    return FallbackLabel();
  }
  if (shape_live != color_live) {
    if (shape_live) {
      ++degradation_.shape_only;
    } else {
      ++degradation_.color_only;
    }
  }
  return ArgminLabel(theta);
}

}  // namespace snor
