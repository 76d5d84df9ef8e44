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
///
/// Certified scan. `BankHybridCertifiedArgminOverRange` answers the
/// paper's best approach (weighted-sum hybrid with Hellinger) without
/// scoring every view's colour. It ranks views by a proven lower bound
/// θ_lb <= θ and runs the exact colour kernel only on views whose bound
/// could still beat, or tie, the best θ found so far.
///
///  - The bound. Split the bins into groups g of kBoundGroupBins
///    contiguous bins (one padded cache line of a dense row; at 8 bins per
///    channel a group is one blue axis). Cauchy-Schwarz within each group
///    gives sum_{k in g} sqrt(q_k v_k) <= sqrt(Q_g V_g), so the
///    Bhattacharyya coefficient BC = sum_k sqrt(q_k v_k) / sqrt(Q V) is at
///    most sum_g sqrt(Q_g / Q) * sqrt(V_g / V). The bank keeps one float
///    row of sqrt(V_g / V) per view, the query one of sqrt(Q_g / Q), both
///    rounded up from double, and D = their float dot product. Then
///    H_lb = sqrt(max(0, 1 - (D * (1 + m) + m))) and
///    θ_lb = HybridTheta(α, S, β, H_lb), with S the view's exact shape
///    score.
///  - The margin m (CertifiedBoundMargin). With γ_n(u) = n u / (1 - n u)
///    (Higham's bound on n roundings at unit roundoff u), f = 2^-24 and
///    d = 2^-53, for n bins and G groups:
///      * the G-term float dot D is at least (1 - γ_G(f)) times the exact
///        dot of its rounded-up factors;
///      * each factor is at least (1 - γ_{n+10}(d)) times its real value:
///        group sums of <= 8 and row sums of n non-negative terms, one
///        division and one sqrt, all in double;
///      * the exact kernel's coefficient, computed from HellingerFromSums'
///        three sums, is at most (1 + γ_{2n+8}(d)) times the real BC;
///      * underflow adds at most n 2^-537 / sqrt(Q V) + G 2^-149, below
///        2^-100 over the certified mass range.
///    So the computed coefficient is at most D (1 + m0) + 2^-100 with
///    m0 = 2 γ_G(f) + γ_{4n+32}(d), and m = 2 m0 also absorbs the cross
///    terms and the rounding of D * (1 + m) + m itself. Rounding to
///    nearest is monotone, so a computed upper bound on the coefficient
///    gives H_lb <= H and then θ_lb <= θ in floating point, bit for bit.
///  - Rows it cannot certify. A row that is non-finite, has a negative
///    bin, or has a mass outside [kMinCertifiedMass, kMaxCertifiedMass]
///    (zero mass included; the range keeps every product and mean of the
///    kernel inside double's normal range) gets H_lb = 0 and so is always
///    scored exactly. A query outside the same rules gives every row
///    H_lb = 0.
///  - The scan. It computes S and θ_lb for every view of the range,
///    scores the argmin-θ_lb view exactly, then makes one ascending pass
///    that scores a view only while θ_lb <= best θ. Equal θ goes to the
///    lower index, so the partial (θ, label) is the full scan's first
///    strict minimum of θ over views with both scores usable.
///  - Eligibility is the caller's (BatchEngine's exact mode): weighted
///    sum with Hellinger, α and β finite and >= 0, both query modalities
///    usable and nan-score disarmed (NanScoreArmed). A partial that finds
///    nothing (no view with both scores usable) is not an answer: the
///    caller then runs the full scan, which decides the degradation.
///    Everything else (micro and macro averaging, the other metrics,
///    degraded queries, armed faults) keeps the full scan, the single
///    reference kernel the cold classifiers run.

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
  /// Contiguous histogram bins per certified-bound group.
  static constexpr std::size_t kBoundGroupBins = 8;

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
  /// Certified-bound rows (see "Certified scan" above): bound_groups
  /// floats per view, sqrt(group mass / row mass) rounded up, filled in the
  /// same pass as the nonzero-bin lists. bound_ok[i] is 0 for a row the
  /// bound cannot certify; its float row is then zero and never read.
  std::size_t bound_groups = 0;  ///< hist_stride / kBoundGroupBins.
  std::vector<float> bound;
  std::vector<std::uint8_t> bound_ok;

  std::size_t size() const { return num_views; }
  bool empty() const { return num_views == 0; }

  const double* HuRow(std::size_t i) const {
    return hu.data() + i * kHuStride;
  }
  const double* HistRow(std::size_t i) const {
    return hist.data() + i * hist_stride;
  }
  const float* BoundRow(std::size_t i) const {
    return bound.data() + i * bound_groups;
  }
  bool IsValid(std::size_t i) const { return valid[i] != 0; }
};

/// Masses a certified-bound row or query may have.
inline constexpr double kMinCertifiedMass = 0x1p-400;
inline constexpr double kMaxCertifiedMass = 0x1p+400;

/// γ_n(u) = n u / (1 - n u).
constexpr double RoundingGamma(double n, double unit_roundoff) {
  return n * unit_roundoff / (1.0 - n * unit_roundoff);
}

/// The margin m of the certified Hellinger bound for rows of `bins` bins
/// in `groups` groups, derived in "Certified scan" above: 1.5e-5 for 512
/// bins in 64 groups.
constexpr double CertifiedBoundMargin(std::size_t bins, std::size_t groups) {
  const double n = static_cast<double>(bins);
  return 2.0 * (2.0 * RoundingGamma(static_cast<double>(groups), 0x1p-24) +
                RoundingGamma(4.0 * n + 32.0, 0x1p-53));
}

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

/// \brief The certified Hellinger lower bound H_lb of one query against
/// the rows of one bank (see "Certified scan" above). For every row whose
/// exact Hellinger score against the query is finite, H_lb(i) <= that
/// score, bit for bit in floating point. It borrows the bank.
class HellingerLowerBound {
 public:
  HellingerLowerBound(const ImageFeatures& query, const FeatureBank& bank);

  /// H_lb of bank row `i`; 0 when the row or the query is not certified.
  [[nodiscard]] double operator()(std::size_t i) const;

 private:
  const FeatureBank* bank_;
  /// The query's sqrt(group mass / mass) row, rounded up.
  std::vector<float> query_row_;
  double margin_;
  bool certified_ = false;
};

/// Certified partial argmin of the weighted-sum hybrid with Hellinger over
/// bank views [begin, end) (see "Certified scan" above): the lowest-index
/// view of minimal θ = HybridTheta(alpha, S, beta, H) among views with a
/// usable shape score S and a finite H, as PartialBest{θ, label}, bit for
/// bit the full scan's. Requires alpha and beta finite and >= 0, and is
/// meant for a query whose shape and colour modalities are both usable,
/// with nan-score disarmed. Adds the number of exact colour scores it ran
/// to `*exact_evals`.
[[nodiscard]] PartialBest BankHybridCertifiedArgminOverRange(
    const ImageFeatures& input, const FeatureBank& bank, std::size_t begin,
    std::size_t end, ShapeMatchMethod shape_method, double alpha, double beta,
    std::size_t* exact_evals);

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
