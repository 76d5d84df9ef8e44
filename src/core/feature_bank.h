#ifndef SNOR_CORE_FEATURE_BANK_H_
#define SNOR_CORE_FEATURE_BANK_H_

/// \file
/// Structure-of-arrays gallery feature banks and their batch distance
/// kernels, plus the gallery-level ANN view index.
///
/// The bank packs the per-view matching features of a gallery (Hu
/// moments, L1-normalized color histograms, labels, validity) into flat,
/// padded, 64-byte-stride arrays so the per-view inner loops stream
/// contiguous memory instead of chasing a pointer into every view's
/// separately allocated histogram. Next to the dense rows it keeps each
/// histogram row's nonzero bins, the one sparse representation both the
/// exact Hellinger kernels and the ANN index's colour retrieval read.
/// These kernels are the only gallery scan of the paper's matching
/// approaches: the cold classifiers run them over the whole bank on the
/// caller's thread, the sharded BatchEngine over shard ranges and ANN
/// candidate lists on its workers.
///
/// Kernel contract — bit identity. Every bank kernel computes each
/// per-pair score with the same arithmetic as the per-pair functions
/// (`MatchShapes`, `CompareHistograms`, `HybridColorDistance`), split
/// where one side can be precomputed: shape scores are
/// `MatchShapesFromMaps` over a per-row `LogHuMap` made at pack time
/// (what `MatchShapesRaw` does per pair), and Hellinger scores are
/// `HellingerFromSums` over a packed row sum and a sum of sqrt(q[k] * v)
/// over the row's nonzero bins only. Skipping a zero bin is exact: its
/// dense term is sqrt(q * ±0) = ±0 for any finite q, and adding ±0 leaves
/// an ascending sum that starts at +0 unchanged; a query with a
/// non-finite bin has a non-finite sum, which makes the score NaN either
/// way. The other colour metrics call `CompareHistogramsRaw` on the dense
/// row.
/// Every kernel scans views in ascending index order, skips invalid views
/// and non-finite scores, keeps the first strict optimum, and passes every
/// shape score through `MaybePoisonScore`, so a range split into shards
/// and merged in shard order answers exactly like one full scan.
/// The differential fuzz tests in tests/core_feature_bank_test.cc check
/// every kernel against a dense per-pair reference.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/classifiers.h"
#include "core/feature_cache.h"
#include "geometry/moments.h"

namespace snor {

/// \brief SoA bank of the per-view matching features of one gallery.
///
/// Rows are padded to a 64-byte stride (8 doubles) so consecutive views
/// never straddle the same cache line pair and the autovectorizer sees
/// constant-stride streams. Pad lanes are zero and never read.
///
/// Row accessors return pointers into the flat arrays. A row pointer
/// dies when the bank is destroyed, reassigned or repacked.
struct FeatureBank {
  /// Hu rows are 7 moments + 1 zero pad lane.
  static constexpr std::size_t kHuStride = 8;

  std::size_t num_views = 0;
  /// Histogram geometry shared by every view (validated at pack time).
  int bins_per_channel = 0;
  std::size_t hist_bins = 0;    ///< Logical bins per row.
  std::size_t hist_stride = 0;  ///< Padded row width (multiple of 8).

  std::vector<double> hu;            ///< num_views * kHuStride.
  std::vector<double> hist;          ///< num_views * hist_stride.
  std::vector<std::uint8_t> valid;   ///< 1 = usable view.
  std::vector<ObjectClass> labels;   ///< Per-view class label.
  std::vector<int> model_ids;        ///< Per-view model id.

  // Per-row invariants the scan kernels would otherwise recompute for
  // every (query, view) pair, derived once at pack time.
  std::vector<LogHuMap> hu_maps;     ///< MakeLogHuMap of each Hu row.
  /// Ascending-order bin sum of each histogram row, bit-identical to the
  /// dense sum CompareHistogramsRaw accumulates. Non-finite exactly when
  /// the row holds a NaN or infinite bin (or its finite bins overflow):
  /// that is the row's finite flag.
  std::vector<double> hist_sums;
  /// Nonzero histogram bins of every row, rows back to back in ascending
  /// bin order: row i owns entries [nz_offsets[i], nz_offsets[i + 1]).
  /// NaN bins count as nonzero; ±0.0 bins are left out.
  std::vector<std::size_t> nz_offsets;  ///< num_views + 1.
  std::vector<std::uint32_t> nz_bins;
  std::vector<double> nz_values;

  std::size_t size() const { return num_views; }
  bool empty() const { return num_views == 0; }

  const double* HuRow(std::size_t i) const {
    return hu.data() + i * kHuStride;
  }
  const double* HistRow(std::size_t i) const {
    return hist.data() + i * hist_stride;
  }
  bool IsValid(std::size_t i) const { return valid[i] != 0; }
};

/// Packs a gallery into an SoA bank. Bin values, Hu moments, labels and
/// validity are copied exactly (no renormalization — pack/unpack is a
/// bit-exact round trip), and the per-row invariants are derived from
/// them. All views must share one histogram geometry.
[[nodiscard]] FeatureBank PackFeatureBank(
    const std::vector<ImageFeatures>& gallery);

/// Inverse of PackFeatureBank. `status` is not carried (it is not
/// serialized by the feature store either); everything the matchers read —
/// label, model id, hu, validity, histogram bins — round-trips exactly.
[[nodiscard]] std::vector<ImageFeatures> UnpackFeatureBank(
    const FeatureBank& bank);

/// Shape-only partial argmin over bank views [begin, end): the first
/// strict minimum of the usable `MatchShapes` distances.
[[nodiscard]] PartialBest BankShapeArgminOverRange(const ImageFeatures& input,
                                                   const FeatureBank& bank,
                                                   std::size_t begin,
                                                   std::size_t end,
                                                   ShapeMatchMethod method);

/// Colour-only partial arg-optimum over bank views [begin, end): maximises
/// similarity metrics, minimises distance metrics.
[[nodiscard]] PartialBest BankColorArgbestOverRange(const ImageFeatures& input,
                                                    const FeatureBank& bank,
                                                    std::size_t begin,
                                                    std::size_t end,
                                                    HistCompareMethod method);

/// Fills `shape_scores`/`color_scores` (pre-sized to the bank, filled
/// with kUnusableScore) for bank views [begin, end) with each requested
/// modality's usable per-view score (shape distance, HybridColorDistance
/// of the colour score) and counts the usable scores of each modality.
void BankHybridScoresOverRange(
    const ImageFeatures& input, const FeatureBank& bank, std::size_t begin,
    std::size_t end, ShapeMatchMethod shape_method,
    HistCompareMethod color_method, bool use_shape, bool use_color,
    std::vector<double>* shape_scores, std::vector<double>* color_scores,
    std::size_t* shape_usable, std::size_t* color_usable);

/// Candidate-subset variants of the kernels above, used by the ANN
/// exact-rerank path: identical per-view arithmetic and skip rules, but
/// only the listed view indices are scored. `candidates` must be sorted
/// ascending so the first-strict-optimum tie-break visits views in the
/// same order as a full scan restricted to that subset.
[[nodiscard]] PartialBest BankShapeArgminOverCandidates(
    const ImageFeatures& input, const FeatureBank& bank,
    const std::vector<int>& candidates, ShapeMatchMethod method);
[[nodiscard]] PartialBest BankColorArgbestOverCandidates(
    const ImageFeatures& input, const FeatureBank& bank,
    const std::vector<int>& candidates, HistCompareMethod method);
void BankHybridScoresOverCandidates(
    const ImageFeatures& input, const FeatureBank& bank,
    const std::vector<int>& candidates, ShapeMatchMethod shape_method,
    HistCompareMethod color_method, bool use_shape, bool use_color,
    std::vector<double>* shape_scores, std::vector<double>* color_scores,
    std::size_t* shape_usable, std::size_t* color_usable);

/// The three argmin strategies of §3.2 over a per-view theta vector
/// (index-aligned with the bank): weighted sum over views, micro-average
/// over models, macro-average over classes. `fallback` wins when no view
/// is usable.
[[nodiscard]] ObjectClass BankHybridArgminLabel(
    const std::vector<double>& theta, const FeatureBank& bank,
    HybridStrategy strategy, ObjectClass fallback);

/// Options for the gallery-level ANN view index.
struct GalleryIndexOptions {
  /// Top-R candidates requested per modality before exact rerank.
  int candidates = 48;
  /// Shape metric used by the exact shape prefilter (the engine passes
  /// its approach's method so prefilter ranks equal rerank ranks).
  ShapeMatchMethod shape_method = ShapeMatchMethod::kI3;
};

/// \brief Candidate retrieval over gallery views for the ANN match mode,
/// one retrieval structure per modality:
///
///  - shape: an exact top-R prefilter over the bank's log-Hu maps — a
///    full `MatchShapesFromMaps` scan amortises the transcendentals, costs
///    a fraction of one color distance, and is both cheaper and strictly
///    more faithful than any Euclidean proxy of the non-metric shape
///    distances (I1-I3 are relative or Chebyshev-like; no k-d embedding
///    ranks them reliably);
///  - color: top-R by the Bhattacharyya coefficient, which orders views
///    exactly as the exact Hellinger distance does. Over a view v it is
///    sum_k sqrt(q[k] * v[k]) / sqrt(sum q * sum v), and sum q is fixed
///    per query, so the index ranks by sum_k sqrt(q[k]) * sqrt(v[k] /
///    sum v) over the row's nonzero bins only. It keeps one float
///    sqrt(v[k] / sum v) per entry of the bank's nonzero-bin lists, and no
///    dense copy of any histogram. For L1-normalized rows this is the
///    sqrt-space L2 rank, since |sqrt(q) - sqrt(v)|^2 = sum q + sum v -
///    2 * sum sqrt(q) * sqrt(v). A row that occupies every bin is scanned
///    as one contiguous float loop; any other row gathers the query's
///    sqrt at its nonzero bins. Retrieval sums in float, so only ranks
///    within float rounding of each other may differ from exact ranks.
///
/// The index only *proposes* candidate view indices; callers rerank them
/// with the exact bank kernels, so `--match-mode=ann` accuracy degrades
/// only by bounded recall loss, never by approximate scores.
///
/// The index borrows the bank it was built from (it reads the bank's
/// log-Hu maps and nonzero-bin lists at query time): the bank must
/// outlive the index, and a repacked bank needs a rebuilt index.
class GalleryViewIndex {
 public:
  [[nodiscard]] static GalleryViewIndex Build(
      const FeatureBank& bank, const GalleryIndexOptions& options = {});

  /// Union of per-modality top-R candidate view indices for `query`,
  /// sorted ascending (deterministic rerank order). Empty when no usable
  /// modality — callers fall back to a full exact scan. Negative query
  /// bins count as zero; a query with a NaN bin, or a bin a float cannot
  /// hold, proposes no colour candidates.
  [[nodiscard]] std::vector<int> Candidates(const ImageFeatures& query,
                                            bool use_shape,
                                            bool use_color) const;

  int candidates_per_modality() const { return options_.candidates; }

 private:
  GalleryIndexOptions options_;
  const FeatureBank* bank_ = nullptr;
  /// Exact shape prefilter rows: valid bank views with finite Hu moments.
  std::vector<int> shape_ids_;
  /// Colour retrieval rows: valid bank views whose histogram is finite,
  /// non-negative and has positive mass.
  std::vector<int> color_ids_;
  /// sqrt(v[k] / sum v) of every bank nonzero-bin entry of a colour
  /// retrieval row (0 for other rows), index-aligned with
  /// `bank.nz_values`.
  std::vector<float> nz_sqrt_;
};

}  // namespace snor

#endif  // SNOR_CORE_FEATURE_BANK_H_
