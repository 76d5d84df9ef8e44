#include "core/feature_bank.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iterator>
#include <map>
#include <utility>

#include "geometry/moments.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/fault.h"

namespace snor {
namespace {

constexpr double kHuge = kUnusableScore;

// Rounds a row width up to a whole number of 64-byte cache lines of the
// element type.
std::size_t PadStride(std::size_t logical, std::size_t elem_size) {
  const std::size_t lane = 64 / elem_size;
  return (logical + lane - 1) / lane * lane;
}

}  // namespace

FeatureBank PackFeatureBank(const std::vector<ImageFeatures>& gallery) {
  SNOR_TRACE_SPAN("core.bank.pack");
  FeatureBank bank;
  bank.num_views = gallery.size();
  bank.nz_offsets.assign(bank.num_views + 1, 0);
  if (gallery.empty()) return bank;

  bank.bins_per_channel = gallery.front().histogram.bins_per_channel();
  bank.hist_bins = gallery.front().histogram.num_bins();
  bank.hist_stride = PadStride(bank.hist_bins, sizeof(double));

  bank.hu.assign(bank.num_views * FeatureBank::kHuStride, 0.0);
  bank.hist.assign(bank.num_views * bank.hist_stride, 0.0);
  bank.valid.resize(bank.num_views);
  bank.labels.resize(bank.num_views);
  bank.model_ids.resize(bank.num_views);
  bank.hu_maps.resize(bank.num_views);
  bank.hist_sums.resize(bank.num_views);

  for (std::size_t i = 0; i < bank.num_views; ++i) {
    const ImageFeatures& view = gallery[i];
    SNOR_CHECK_EQ(view.histogram.num_bins(), bank.hist_bins);
    // memcpy, not arithmetic: bin values and moments land in the bank
    // bit-for-bit (NaNs included — poisoned views must stay poisoned).
    std::memcpy(bank.hu.data() + i * FeatureBank::kHuStride, view.hu.data(),
                7 * sizeof(double));
    std::memcpy(bank.hist.data() + i * bank.hist_stride,
                view.histogram.bins().data(), bank.hist_bins * sizeof(double));
    bank.valid[i] = view.valid ? 1 : 0;
    bank.labels[i] = view.label;
    bank.model_ids[i] = view.model_id;

    bank.hu_maps[i] = MakeLogHuMap(view.hu.data());
    const double* row = bank.hist.data() + i * bank.hist_stride;
    double sum = 0.0;
    for (std::size_t block = 0; block < bank.hist_stride; block += 8) {
      // Rendered rows are mostly empty, so test a whole cache line of
      // bins for ±0.0 at once (shifting out the sign bit) before testing
      // bins one by one. Pad lanes are +0.0 and never enter the list.
      std::uint64_t words[8];
      std::memcpy(words, row + block, sizeof(words));
      std::uint64_t magnitude_bits = 0;
      for (const std::uint64_t w : words) magnitude_bits |= w << 1;
      if (magnitude_bits == 0) continue;
      for (std::size_t k = block; k < block + 8; ++k) {
        // Adding ±0.0 to an ascending sum that starts at +0.0 never
        // changes it, so the sum over nonzero bins equals the dense sum
        // bitwise.
        if (row[k] == 0.0) continue;
        sum += row[k];
        bank.nz_bins.push_back(static_cast<std::uint32_t>(k));
        bank.nz_values.push_back(row[k]);
      }
    }
    bank.hist_sums[i] = sum;
    bank.nz_offsets[i + 1] = bank.nz_bins.size();
  }

  static obs::Gauge& views_gauge =
      obs::MetricsRegistry::Global().gauge("core.bank.views");
  static obs::Gauge& bytes_gauge =
      obs::MetricsRegistry::Global().gauge("core.bank.bytes");
  views_gauge.Set(static_cast<double>(bank.num_views));
  bytes_gauge.Set(static_cast<double>(
      (bank.hu.size() + bank.hist.size() + bank.hist_sums.size() +
       bank.nz_values.size()) *
          sizeof(double) +
      bank.valid.size() + bank.labels.size() * sizeof(ObjectClass) +
      bank.model_ids.size() * sizeof(int) +
      bank.hu_maps.size() * sizeof(LogHuMap) +
      bank.nz_offsets.size() * sizeof(std::size_t) +
      bank.nz_bins.size() * sizeof(std::uint32_t)));
  return bank;
}

std::vector<ImageFeatures> UnpackFeatureBank(const FeatureBank& bank) {
  std::vector<ImageFeatures> gallery(bank.num_views);
  for (std::size_t i = 0; i < bank.num_views; ++i) {
    ImageFeatures& view = gallery[i];
    view.label = bank.labels[i];
    view.model_id = bank.model_ids[i];
    view.valid = bank.IsValid(i);
    std::memcpy(view.hu.data(), bank.HuRow(i), 7 * sizeof(double));
    view.histogram = ColorHistogram(bank.bins_per_channel);
    std::memcpy(view.histogram.bins().data(), bank.HistRow(i),
                bank.hist_bins * sizeof(double));
  }
  return gallery;
}

namespace {

/// Ascending view indices [first, last), iterable like a candidate list,
/// so one kernel body serves both full-range and candidate scans.
struct IndexRange {
  struct Iterator {
    std::size_t i;
    std::size_t operator*() const { return i; }
    Iterator& operator++() {
      ++i;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return i != other.i; }
  };
  std::size_t first;
  std::size_t last;
  Iterator begin() const { return {first}; }
  Iterator end() const { return {std::max(first, last)}; }
};

/// Colour score of bank row `i`, bit-identical to
/// CompareHistogramsRaw(q, bank.HistRow(i), bank.hist_bins, method).
/// Hellinger reads only the row's nonzero bins (see the kernel contract
/// in feature_bank.h); `q_sum` is the query's ascending bin sum.
double RowColorScore(const double* q, double q_sum, const FeatureBank& bank,
                     std::size_t i, HistCompareMethod method) {
  if (method != HistCompareMethod::kHellinger) {
    return CompareHistogramsRaw(q, bank.HistRow(i), bank.hist_bins, method);
  }
  double sum_sqrt = 0.0;
  for (std::size_t k = bank.nz_offsets[i]; k < bank.nz_offsets[i + 1]; ++k) {
    sum_sqrt += std::sqrt(q[bank.nz_bins[k]] * bank.nz_values[k]);
  }
  return HellingerFromSums(q_sum, bank.hist_sums[i], sum_sqrt,
                           bank.hist_bins);
}

template <typename Views>
PartialBest ShapeArgminOver(const ImageFeatures& input,
                            const FeatureBank& bank, const Views& views,
                            ShapeMatchMethod method) {
  const LogHuMap q_map = MakeLogHuMap(input.hu.data());
  PartialBest partial;
  partial.score = kHuge;
  for (const auto idx : views) {
    const auto i = static_cast<std::size_t>(idx);
    if (!bank.IsValid(i)) continue;
    const double d = MaybePoisonScore(
        MatchShapesFromMaps(q_map, bank.hu_maps[i], method));
    if (!std::isfinite(d)) continue;  // Poisoned view: skip, don't crash.
    if (d < partial.score) {
      partial.score = d;
      partial.label = bank.labels[i];
      partial.found = true;
    }
  }
  return partial;
}

template <typename Views>
PartialBest ColorArgbestOver(const ImageFeatures& input,
                             const FeatureBank& bank, const Views& views,
                             HistCompareMethod method) {
  SNOR_CHECK_EQ(input.histogram.num_bins(), bank.hist_bins);
  const double* q = input.histogram.bins().data();
  const double q_sum = input.histogram.TotalMass();
  const bool maximize = IsSimilarityMetric(method);
  PartialBest partial;
  partial.score = maximize ? -kHuge : kHuge;
  for (const auto idx : views) {
    const auto i = static_cast<std::size_t>(idx);
    if (!bank.IsValid(i)) continue;
    const double c = RowColorScore(q, q_sum, bank, i, method);
    if (!std::isfinite(c)) continue;  // Corrupt view: skip, don't crash.
    const bool better = maximize ? c > partial.score : c < partial.score;
    if (better) {
      partial.score = c;
      partial.label = bank.labels[i];
      partial.found = true;
    }
  }
  return partial;
}

template <typename Views>
void HybridScoresOver(const ImageFeatures& input, const FeatureBank& bank,
                      const Views& views, ShapeMatchMethod shape_method,
                      HistCompareMethod color_method, bool use_shape,
                      bool use_color, std::vector<double>* shape_scores,
                      std::vector<double>* color_scores,
                      std::size_t* shape_usable, std::size_t* color_usable) {
  if (use_color) SNOR_CHECK_EQ(input.histogram.num_bins(), bank.hist_bins);
  const LogHuMap q_map = MakeLogHuMap(input.hu.data());
  const double* q_hist = input.histogram.bins().data();
  const double q_sum = input.histogram.TotalMass();
  for (const auto idx : views) {
    const auto i = static_cast<std::size_t>(idx);
    if (!bank.IsValid(i)) continue;
    if (use_shape) {
      const double s = MaybePoisonScore(
          MatchShapesFromMaps(q_map, bank.hu_maps[i], shape_method));
      if (std::isfinite(s) && s < kHuge) {
        (*shape_scores)[i] = s;
        ++*shape_usable;
      }
    }
    if (use_color) {
      const double c = HybridColorDistanceFromScore(
          RowColorScore(q_hist, q_sum, bank, i, color_method), color_method);
      if (std::isfinite(c)) {
        (*color_scores)[i] = c;
        ++*color_usable;
      }
    }
  }
}

}  // namespace

PartialBest BankShapeArgminOverRange(const ImageFeatures& input,
                                     const FeatureBank& bank,
                                     std::size_t begin, std::size_t end,
                                     ShapeMatchMethod method) {
  return ShapeArgminOver(input, bank, IndexRange{begin, end}, method);
}

PartialBest BankColorArgbestOverRange(const ImageFeatures& input,
                                      const FeatureBank& bank,
                                      std::size_t begin, std::size_t end,
                                      HistCompareMethod method) {
  return ColorArgbestOver(input, bank, IndexRange{begin, end}, method);
}

void BankHybridScoresOverRange(
    const ImageFeatures& input, const FeatureBank& bank, std::size_t begin,
    std::size_t end, ShapeMatchMethod shape_method,
    HistCompareMethod color_method, bool use_shape, bool use_color,
    std::vector<double>* shape_scores, std::vector<double>* color_scores,
    std::size_t* shape_usable, std::size_t* color_usable) {
  HybridScoresOver(input, bank, IndexRange{begin, end}, shape_method,
                   color_method, use_shape, use_color, shape_scores,
                   color_scores, shape_usable, color_usable);
}

PartialBest BankShapeArgminOverCandidates(const ImageFeatures& input,
                                          const FeatureBank& bank,
                                          const std::vector<int>& candidates,
                                          ShapeMatchMethod method) {
  return ShapeArgminOver(input, bank, candidates, method);
}

PartialBest BankColorArgbestOverCandidates(const ImageFeatures& input,
                                           const FeatureBank& bank,
                                           const std::vector<int>& candidates,
                                           HistCompareMethod method) {
  return ColorArgbestOver(input, bank, candidates, method);
}

void BankHybridScoresOverCandidates(
    const ImageFeatures& input, const FeatureBank& bank,
    const std::vector<int>& candidates, ShapeMatchMethod shape_method,
    HistCompareMethod color_method, bool use_shape, bool use_color,
    std::vector<double>* shape_scores, std::vector<double>* color_scores,
    std::size_t* shape_usable, std::size_t* color_usable) {
  HybridScoresOver(input, bank, candidates, shape_method, color_method,
                   use_shape, use_color, shape_scores, color_scores,
                   shape_usable, color_usable);
}

ObjectClass BankHybridArgminLabel(const std::vector<double>& theta,
                                  const FeatureBank& bank,
                                  HybridStrategy strategy,
                                  ObjectClass fallback) {
  switch (strategy) {
    case HybridStrategy::kWeightedSum: {
      double best = kHuge;
      ObjectClass best_label = fallback;
      for (std::size_t i = 0; i < theta.size(); ++i) {
        if (theta[i] < best) {
          best = theta[i];
          best_label = bank.labels[i];
        }
      }
      return best_label;
    }
    case HybridStrategy::kMicroAverage: {
      // Average theta per model (class, model_id), argmin over models.
      std::map<std::pair<int, int>, std::pair<double, int>> acc;
      for (std::size_t i = 0; i < theta.size(); ++i) {
        if (theta[i] >= kHuge) continue;
        auto& entry = acc[{ClassIndex(bank.labels[i]), bank.model_ids[i]}];
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
        const auto c = static_cast<std::size_t>(ClassIndex(bank.labels[i]));
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

GalleryViewIndex GalleryViewIndex::Build(const FeatureBank& bank,
                                         const GalleryIndexOptions& options) {
  SNOR_TRACE_SPAN("core.bank.index_build");
  GalleryViewIndex index;
  index.options_ = options;
  index.bank_ = &bank;
  index.nz_sqrt_.assign(bank.nz_values.size(), 0.0f);

  for (std::size_t i = 0; i < bank.num_views; ++i) {
    if (!bank.IsValid(i)) continue;
    const double* hu = bank.HuRow(i);
    if (std::all_of(hu, hu + 7, [](double h) { return std::isfinite(h); })) {
      index.shape_ids_.push_back(static_cast<int>(i));
    }
    // A finite positive row sum rules out NaN and infinite bins; only
    // nonzero bins can be negative.
    const std::size_t begin = bank.nz_offsets[i];
    const std::size_t end = bank.nz_offsets[i + 1];
    const double* nz = bank.nz_values.data();
    const double mass = bank.hist_sums[i];
    if (std::isfinite(mass) && mass > 0.0 &&
        std::none_of(nz + begin, nz + end, [](double v) { return v < 0.0; })) {
      for (std::size_t k = begin; k < end; ++k) {
        index.nz_sqrt_[k] = std::sqrt(static_cast<float>(nz[k] / mass));
      }
      index.color_ids_.push_back(static_cast<int>(i));
    }
  }
  return index;
}

namespace {

/// Keeps the `r` smallest (score, id) pairs and returns their ids sorted
/// ascending; (score, id) ordering makes tie-breaks a deterministic
/// total order.
template <typename Score>
std::vector<int> TopRIds(std::vector<std::pair<Score, int>>* scored,
                         int candidates) {
  const std::size_t r =
      std::min(scored->size(),
               static_cast<std::size_t>(std::max(candidates, 0)));
  std::nth_element(scored->begin(),
                   scored->begin() + static_cast<std::ptrdiff_t>(r),
                   scored->end());
  std::vector<int> ids;
  ids.reserve(r);
  for (std::size_t i = 0; i < r; ++i) ids.push_back((*scored)[i].second);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// sum_k a[k] * b[k] accumulated in float across eight independent lanes,
/// which break the serial dependence chain so the reduction vectorizes
/// without -ffast-math. Kept out of line: inlined into the retrieval
/// loop, GCC 12 vectorizes it with in-order scalar lane sums instead and
/// the full-row scan runs about twice as slow.
[[gnu::noinline]] float ContiguousDot(const float* a, const float* b,
                                      std::size_t n) {
  constexpr std::size_t kLanes = 8;
  float lanes[kLanes] = {};
  std::size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) lanes[l] += a[k + l] * b[k + l];
  }
  float tail = 0.0f;
  for (; k < n; ++k) tail += a[k] * b[k];
  return ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5])) +
         ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7])) + tail;
}

/// sum_k sqrt_q[bins[k]] * row_sqrt[k] over one row's `nnz` nonzero
/// entries, accumulated in float. A row that occupies all `num_bins` bins
/// lists bin k as entry k, so it needs no gather.
float RowSqrtDot(const float* sqrt_q, std::size_t num_bins,
                 const std::uint32_t* bins, const float* row_sqrt,
                 std::size_t nnz) {
  if (nnz == num_bins) return ContiguousDot(sqrt_q, row_sqrt, nnz);
  float dot = 0.0f;
  for (std::size_t k = 0; k < nnz; ++k) dot += sqrt_q[bins[k]] * row_sqrt[k];
  return dot;
}

}  // namespace

std::vector<int> GalleryViewIndex::Candidates(const ImageFeatures& query,
                                              bool use_shape,
                                              bool use_color) const {
  std::vector<int> shape_cands;
  if (use_shape && !shape_ids_.empty()) {
    // Exact top-R shape prefilter: score every prefilter row with the
    // approach's own metric (query mapped once, transcendentals
    // amortised) and keep the R best.
    const LogHuMap query_map = MakeLogHuMap(query.hu.data());
    std::vector<std::pair<double, int>> scored;
    scored.reserve(shape_ids_.size());
    for (const int id : shape_ids_) {
      const double s = MatchShapesFromMaps(
          query_map, bank_->hu_maps[static_cast<std::size_t>(id)],
          options_.shape_method);
      if (std::isfinite(s)) scored.emplace_back(s, id);
    }
    shape_cands = TopRIds(&scored, options_.candidates);
  }
  std::vector<int> color_cands;
  const std::size_t num_bins = query.histogram.num_bins();
  if (use_color && !color_ids_.empty() && num_bins == bank_->hist_bins) {
    // sqrt(q), negative bins clamped to zero. std::max keeps a NaN bin,
    // and a NaN or infinite sqrt(q) disqualifies the whole query: the
    // sparse dot would skip it wherever no row occupies its bin.
    const double* q = query.histogram.bins().data();
    std::vector<float> sqrt_q(num_bins);
    bool finite = true;
    for (std::size_t k = 0; k < num_bins; ++k) {
      sqrt_q[k] = std::sqrt(static_cast<float>(std::max(q[k], 0.0)));
      finite = finite && std::isfinite(sqrt_q[k]);
    }
    if (finite) {
      // Higher coefficient = closer view, so rank by its negation.
      std::vector<std::pair<float, int>> scored;
      scored.reserve(color_ids_.size());
      for (const int id : color_ids_) {
        const auto row = static_cast<std::size_t>(id);
        const std::size_t begin = bank_->nz_offsets[row];
        const std::size_t nnz = bank_->nz_offsets[row + 1] - begin;
        scored.emplace_back(
            -RowSqrtDot(sqrt_q.data(), num_bins, bank_->nz_bins.data() + begin,
                        nz_sqrt_.data() + begin, nnz),
            id);
      }
      color_cands = TopRIds(&scored, options_.candidates);
    }
  }
  if (shape_cands.empty()) return color_cands;
  if (color_cands.empty()) return shape_cands;
  std::vector<int> merged;
  merged.reserve(shape_cands.size() + color_cands.size());
  std::merge(shape_cands.begin(), shape_cands.end(), color_cands.begin(),
             color_cands.end(), std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

}  // namespace snor
