#ifndef SNOR_FEATURES_HISTOGRAM_H_
#define SNOR_FEATURES_HISTOGRAM_H_

#include <vector>

#include "img/image.h"

namespace snor {

/// \brief Histogram comparison metrics with OpenCV `compareHist` semantics.
///
/// Correlation and Intersection are similarities (higher = more similar);
/// Chi-square and Hellinger (Bhattacharyya) are distances (lower = more
/// similar).
enum class HistCompareMethod {
  kCorrelation,
  kChiSquare,
  kIntersection,
  kHellinger,
};

/// True when larger values of the metric mean more similar histograms.
bool IsSimilarityMetric(HistCompareMethod method);

/// \brief Joint 3-D RGB colour histogram with `bins_per_channel`^3 bins.
///
/// This is the colour representation used by the paper's colour-only and
/// hybrid pipelines (§3.2).
class ColorHistogram {
 public:
  /// Creates an empty (all-zero) histogram.
  explicit ColorHistogram(int bins_per_channel = 8);

  /// Computes the histogram of a 3-channel RGB image. Pixels where `mask`
  /// is zero are skipped; pass nullptr for no mask. The result is not
  /// normalized.
  static ColorHistogram Compute(const ImageU8& rgb,
                                const ImageU8* mask = nullptr,
                                int bins_per_channel = 8);

  int bins_per_channel() const { return bins_per_channel_; }
  std::size_t num_bins() const { return bins_.size(); }

  /// Total mass (sum of all bins).
  double TotalMass() const;

  /// Scales bins so they sum to 1; a zero histogram stays zero.
  void NormalizeL1();

  /// Direct bin access (r, g, b bin indices).
  double& At(int r_bin, int g_bin, int b_bin);
  double At(int r_bin, int g_bin, int b_bin) const;

  const std::vector<double>& bins() const { return bins_; }
  std::vector<double>& bins() { return bins_; }

 private:
  int bins_per_channel_;
  std::vector<double> bins_;
};

/// Compares two histograms (must have equal bin counts) with the given
/// method, using the exact OpenCV formulas:
///  - Correlation: Pearson correlation over bins.
///  - Chi-square: sum (a-b)^2 / a over bins with a > 0.
///  - Intersection: sum min(a, b).
///  - Hellinger: sqrt(max(0, 1 - sum sqrt(a*b) / sqrt(mean_a*mean_b*N^2)));
///    an all-zero operand (fully masked-out crop) yields the worst-case
///    distance 1 instead of a 0/0 perfect match.
///
/// Every metric returns NaN when either operand holds a NaN or infinite
/// bin (detected as a non-finite ascending bin sum), so callers' isfinite
/// skips see a corrupt histogram instead of a perfect or masked score.
double CompareHistograms(const ColorHistogram& a, const ColorHistogram& b,
                         HistCompareMethod method);

/// Raw-pointer core of CompareHistograms, operating on two bin arrays of
/// length `n`. Both the cold classifiers (via CompareHistograms) and the
/// SoA feature-bank batch kernels call this single implementation, which is
/// what makes the warm/batched paths bit-identical to the cold ones by
/// construction.
///
/// Flat-histogram semantics for Correlation (zero variance on a side):
///  - both flat -> 1.0 (identical up to offset, perfectly correlated);
///  - exactly one flat -> -1.0, the worst case for a similarity metric, so
///    a flat (e.g. fully masked-out) operand can never win an argmax
///    against real histograms.
double CompareHistogramsRaw(const double* a, const double* b, std::size_t n,
                            HistCompareMethod method);

/// Hellinger tail of CompareHistogramsRaw from its three ascending-order
/// accumulators: the bin sums of both sides and sum sqrt(a[i] * b[i]).
/// CompareHistogramsRaw's Hellinger case returns exactly this, so a
/// caller that produces the same three sums some cheaper way (the sparse
/// feature-bank kernel) gets a bit-identical score. NaN when either sum
/// is non-finite or the coefficient is NaN (a negative bin).
double HellingerFromSums(double sum_a, double sum_b, double sum_sqrt,
                         std::size_t n);

}  // namespace snor

#endif  // SNOR_FEATURES_HISTOGRAM_H_
