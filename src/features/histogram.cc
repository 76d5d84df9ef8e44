#include "features/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace snor {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

bool IsSimilarityMetric(HistCompareMethod method) {
  return method == HistCompareMethod::kCorrelation ||
         method == HistCompareMethod::kIntersection;
}

ColorHistogram::ColorHistogram(int bins_per_channel)
    : bins_per_channel_(bins_per_channel) {
  SNOR_CHECK_GT(bins_per_channel, 0);
  SNOR_CHECK_LE(bins_per_channel, 256);
  const std::size_t n = static_cast<std::size_t>(bins_per_channel) *
                        bins_per_channel * bins_per_channel;
  bins_.assign(n, 0.0);
}

ColorHistogram ColorHistogram::Compute(const ImageU8& rgb,
                                       const ImageU8* mask,
                                       int bins_per_channel) {
  SNOR_CHECK_EQ(rgb.channels(), 3);
  if (mask != nullptr) {
    SNOR_CHECK_EQ(mask->channels(), 1);
    SNOR_CHECK_EQ(mask->width(), rgb.width());
    SNOR_CHECK_EQ(mask->height(), rgb.height());
  }
  ColorHistogram hist(bins_per_channel);
  const int shift_divisor = 256 / bins_per_channel;
  const bool power_of_two = (256 % bins_per_channel) == 0;
  for (int y = 0; y < rgb.height(); ++y) {
    const std::uint8_t* row = rgb.Row(y);
    for (int x = 0; x < rgb.width(); ++x) {
      if (mask != nullptr && mask->at(y, x) == 0) continue;
      int rb, gb, bb;
      if (power_of_two) {
        rb = row[3 * x + 0] / shift_divisor;
        gb = row[3 * x + 1] / shift_divisor;
        bb = row[3 * x + 2] / shift_divisor;
      } else {
        rb = row[3 * x + 0] * bins_per_channel / 256;
        gb = row[3 * x + 1] * bins_per_channel / 256;
        bb = row[3 * x + 2] * bins_per_channel / 256;
      }
      hist.At(rb, gb, bb) += 1.0;
    }
  }
  return hist;
}

double& ColorHistogram::At(int r_bin, int g_bin, int b_bin) {
  SNOR_DCHECK(r_bin >= 0 && r_bin < bins_per_channel_);
  SNOR_DCHECK(g_bin >= 0 && g_bin < bins_per_channel_);
  SNOR_DCHECK(b_bin >= 0 && b_bin < bins_per_channel_);
  return bins_[(static_cast<std::size_t>(r_bin) * bins_per_channel_ + g_bin) *
                   bins_per_channel_ +
               b_bin];
}

double ColorHistogram::At(int r_bin, int g_bin, int b_bin) const {
  return const_cast<ColorHistogram*>(this)->At(r_bin, g_bin, b_bin);
}

double ColorHistogram::TotalMass() const {
  double total = 0.0;
  for (double v : bins_) total += v;
  return total;
}

void ColorHistogram::NormalizeL1() {
  const double total = TotalMass();
  if (total <= 0.0) return;
  // Idempotence: renormalizing an already-normalized histogram would divide
  // every bin by a total like 0.999999... and drift the bin values. Raw
  // histograms are pixel counts (integer totals), so the only raw total
  // within 1e-9 of 1.0 is exactly 1.0 — safe to treat as normalized.
  if (std::abs(total - 1.0) <= 1e-9) return;
  for (double& v : bins_) v /= total;
}

double CompareHistograms(const ColorHistogram& a, const ColorHistogram& b,
                         HistCompareMethod method) {
  SNOR_CHECK_EQ(a.num_bins(), b.num_bins());
  return CompareHistogramsRaw(a.bins().data(), b.bins().data(),
                              a.num_bins(), method);
}

double CompareHistogramsRaw(const double* ha, const double* hb,
                            const std::size_t n, HistCompareMethod method) {
  // Every metric accumulates both ascending bin sums alongside its own
  // terms. A NaN or infinite bin makes its side's sum non-finite, and a
  // non-finite sum makes the score NaN, so the callers' isfinite skip
  // fires instead of std::min / std::max / `a > 0` hiding the bin.
  double sum_a = 0, sum_b = 0;
  switch (method) {
    case HistCompareMethod::kCorrelation: {
      for (std::size_t i = 0; i < n; ++i) {
        sum_a += ha[i];
        sum_b += hb[i];
      }
      if (!std::isfinite(sum_a) || !std::isfinite(sum_b)) return kNaN;
      const double mean_a = sum_a / static_cast<double>(n);
      const double mean_b = sum_b / static_cast<double>(n);
      double num = 0, den_a = 0, den_b = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double da = ha[i] - mean_a;
        const double db = hb[i] - mean_b;
        num += da * db;
        den_a += da * da;
        den_b += db * db;
      }
      const bool flat_a = den_a < 1e-300;
      const bool flat_b = den_b < 1e-300;
      if (flat_a && flat_b) return 1.0;  // Both flat: perfectly correlated.
      // Exactly one side flat: zero variance makes the Pearson coefficient
      // 0/0. Returning 1.0 here would let a flat (e.g. fully masked-out)
      // histogram silently win argmax against every real histogram — the
      // correlation analogue of the Hellinger zero-denominator bug. Report
      // the worst case for a similarity metric instead.
      if (flat_a || flat_b) return -1.0;
      return num / std::sqrt(den_a * den_b);
    }
    case HistCompareMethod::kChiSquare: {
      double acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        sum_a += ha[i];
        sum_b += hb[i];
        if (ha[i] > 0) {
          const double d = ha[i] - hb[i];
          acc += d * d / ha[i];
        }
      }
      if (!std::isfinite(sum_a) || !std::isfinite(sum_b)) return kNaN;
      return acc;
    }
    case HistCompareMethod::kIntersection: {
      double acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        sum_a += ha[i];
        sum_b += hb[i];
        acc += std::min(ha[i], hb[i]);
      }
      if (!std::isfinite(sum_a) || !std::isfinite(sum_b)) return kNaN;
      return acc;
    }
    case HistCompareMethod::kHellinger: {
      double sum_sqrt = 0;
      for (std::size_t i = 0; i < n; ++i) {
        sum_a += ha[i];
        sum_b += hb[i];
        sum_sqrt += std::sqrt(ha[i] * hb[i]);
      }
      return HellingerFromSums(sum_a, sum_b, sum_sqrt, n);
    }
  }
  SNOR_CHECK_MSG(false, "unreachable");
  return 0.0;
}

double HellingerFromSums(double sum_a, double sum_b, double sum_sqrt,
                         std::size_t n) {
  if (!std::isfinite(sum_a) || !std::isfinite(sum_b)) return kNaN;
  const double mean_a = sum_a / static_cast<double>(n);
  const double mean_b = sum_b / static_cast<double>(n);
  const double denom = std::sqrt(mean_a * mean_b) * static_cast<double>(n);
  // An all-zero histogram (fully masked-out crop) zeroes the
  // denominator; return the worst-case distance instead of letting
  // 0/0 make an empty crop a perfect match for everything.
  if (denom < 1e-300) return 1.0;
  const double bc = sum_sqrt / denom;  // Bhattacharyya coefficient.
  // A negative bin makes a sqrt term NaN; std::max(0.0, NaN) would turn
  // that into 0.0, a perfect match.
  if (std::isnan(bc)) return bc;
  return std::sqrt(std::max(0.0, 1.0 - bc));
}

}  // namespace snor
