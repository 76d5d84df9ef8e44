#include "core/feature_bank.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/classifiers.h"
#include "geometry/moments.h"
#include "util/rng.h"

namespace snor {
namespace {

// Bitwise double equality: tells -0.0 from +0.0 and matches NaN payloads.
bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Zeroes all but at most 10% of the bins, keeping the survivors' values,
// so the sparse kernel path skips most bins.
void MakeSparse(ColorHistogram* h, Rng* rng) {
  const std::size_t n = h->num_bins();
  std::vector<double> kept(n, 0.0);
  for (std::size_t k = 0; k < std::max<std::size_t>(1, n / 10); ++k) {
    const std::size_t bin = rng->Index(n);
    kept[bin] = h->bins()[bin];
  }
  h->bins() = kept;
}

// Fuzz gallery covering the hostile cases the kernels must handle exactly
// like the dense reference: invalid views, NaN and zero Hu moments, flat,
// empty and sparse histograms, histograms with -0.0, NaN, +inf and
// negative bins, and ordinary random views. Queries come from the same
// generator, so every case shows up on the query side too.
std::vector<ImageFeatures> FuzzGallery(std::size_t n, std::uint64_t seed,
                                       int bins_per_channel = 4) {
  Rng rng(seed);
  std::vector<ImageFeatures> gallery(n);
  for (std::size_t i = 0; i < n; ++i) {
    ImageFeatures& f = gallery[i];
    f.label = ClassFromIndex(static_cast<int>(i % kNumClasses));
    f.model_id = static_cast<int>(i / kNumClasses);
    f.valid = true;
    for (double& h : f.hu) h = rng.Uniform(-1.0, 1.0);
    f.histogram = ColorHistogram(bins_per_channel);
    for (double& bin : f.histogram.bins()) bin = rng.UniformDouble();
    f.histogram.NormalizeL1();
    std::vector<double>& bins = f.histogram.bins();
    const std::size_t some_bin = rng.Index(bins.size());

    switch (i % 12) {
      case 1:  // Invalid view: must be skipped by every kernel.
        f.valid = false;
        break;
      case 2:  // NaN moment: poisons shape scores like the cold path.
        f.hu[3] = std::numeric_limits<double>::quiet_NaN();
        break;
      case 3:  // Degenerate shape (all moments below the log eps).
        for (double& h : f.hu) h = 0.0;
        break;
      case 4: {  // Flat histogram (uniform bins).
        const double uniform = 1.0 / static_cast<double>(bins.size());
        for (double& bin : bins) bin = uniform;
        break;
      }
      case 5: {  // Empty histogram (no color mass).
        for (double& bin : bins) bin = 0.0;
        break;
      }
      case 6:  // Sparse histogram (at most 10% of bins occupied).
        MakeSparse(&f.histogram, &rng);
        break;
      case 7:  // Sparse, with -0.0 in every other empty bin.
        MakeSparse(&f.histogram, &rng);
        for (std::size_t k = 0; k < bins.size(); k += 2) {
          if (bins[k] == 0.0) bins[k] = -0.0;
        }
        break;
      case 8:  // Dense with one NaN bin.
        bins[some_bin] = std::numeric_limits<double>::quiet_NaN();
        break;
      case 9:  // Sparse with one +inf bin.
        MakeSparse(&f.histogram, &rng);
        bins[some_bin] = std::numeric_limits<double>::infinity();
        break;
      case 10:  // Sparse with one negative bin.
        MakeSparse(&f.histogram, &rng);
        bins[some_bin] = -0.25;
        break;
      default:
        break;
    }
  }
  return gallery;
}

// Histogram geometries of the differential tests: 64 bins (4 per
// channel) and 4096 bins (16 per channel).
constexpr int kGeometries[] = {4, 16};

constexpr ShapeMatchMethod kShapeMethods[] = {
    ShapeMatchMethod::kI1, ShapeMatchMethod::kI2, ShapeMatchMethod::kI3};
constexpr HistCompareMethod kColorMethods[] = {
    HistCompareMethod::kCorrelation, HistCompareMethod::kChiSquare,
    HistCompareMethod::kIntersection, HistCompareMethod::kHellinger};

// Dense reference for the bank kernels: one per-pair MatchShapes,
// CompareHistograms or HybridColorDistance call per view of an unpacked
// gallery, with the kernels' skip rules (invalid view, non-finite score)
// and first-strict-optimum tie-break.
PartialBest DenseShapeArgmin(const ImageFeatures& q,
                             const std::vector<ImageFeatures>& gallery,
                             std::size_t begin, std::size_t end,
                             ShapeMatchMethod method) {
  PartialBest best;
  best.score = kUnusableScore;
  for (std::size_t i = begin; i < end; ++i) {
    if (!gallery[i].valid) continue;
    const double d = MatchShapes(q.hu, gallery[i].hu, method);
    if (std::isfinite(d) && d < best.score) {
      best = {d, gallery[i].label, true};
    }
  }
  return best;
}

PartialBest DenseColorArgbest(const ImageFeatures& q,
                              const std::vector<ImageFeatures>& gallery,
                              std::size_t begin, std::size_t end,
                              HistCompareMethod method) {
  const bool maximize = IsSimilarityMetric(method);
  PartialBest best;
  best.score = maximize ? -kUnusableScore : kUnusableScore;
  for (std::size_t i = begin; i < end; ++i) {
    if (!gallery[i].valid) continue;
    const double c = CompareHistograms(q.histogram, gallery[i].histogram,
                                       method);
    if (std::isfinite(c) && (maximize ? c > best.score : c < best.score)) {
      best = {c, gallery[i].label, true};
    }
  }
  return best;
}

// Per-view scores of the hybrid kernels: kUnusableScore where a view is
// invalid or its score unusable, plus the usable count per modality.
void DenseHybridScores(const ImageFeatures& q,
                       const std::vector<ImageFeatures>& gallery,
                       ShapeMatchMethod shape_method,
                       HistCompareMethod color_method, bool use_shape,
                       bool use_color, std::vector<double>* shape_scores,
                       std::vector<double>* color_scores,
                       std::size_t* shape_usable, std::size_t* color_usable) {
  for (std::size_t i = 0; i < gallery.size(); ++i) {
    if (!gallery[i].valid) continue;
    if (use_shape) {
      const double s = MatchShapes(q.hu, gallery[i].hu, shape_method);
      if (std::isfinite(s) && s < kUnusableScore) {
        (*shape_scores)[i] = s;
        ++*shape_usable;
      }
    }
    if (use_color) {
      const double c =
          HybridColorDistance(q.histogram, gallery[i].histogram, color_method);
      if (std::isfinite(c)) {
        (*color_scores)[i] = c;
        ++*color_usable;
      }
    }
  }
}

void ExpectSamePartial(const PartialBest& warm, const PartialBest& cold) {
  EXPECT_EQ(warm.found, cold.found);
  if (cold.found) {
    EXPECT_TRUE(BitEq(warm.score, cold.score))
        << warm.score << " vs " << cold.score;
    EXPECT_EQ(warm.label, cold.label);
  }
}

// ---------------------------------------------------------------------------
// Pack / unpack round trip.
// ---------------------------------------------------------------------------

TEST(FeatureBankPackTest, RoundTripIsBitExact) {
  const auto gallery = FuzzGallery(61, 7);
  const FeatureBank bank = PackFeatureBank(gallery);
  ASSERT_EQ(bank.num_views, gallery.size());

  const auto unpacked = UnpackFeatureBank(bank);
  ASSERT_EQ(unpacked.size(), gallery.size());
  for (std::size_t i = 0; i < gallery.size(); ++i) {
    EXPECT_EQ(unpacked[i].label, gallery[i].label);
    EXPECT_EQ(unpacked[i].model_id, gallery[i].model_id);
    EXPECT_EQ(unpacked[i].valid, gallery[i].valid);
    for (int k = 0; k < 7; ++k) {
      const double a = gallery[i].hu[static_cast<std::size_t>(k)];
      const double b = unpacked[i].hu[static_cast<std::size_t>(k)];
      // Bitwise equality so NaN round-trips count as preserved.
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << "hu[" << k << "] of view " << i;
    }
    const auto& ha = gallery[i].histogram.bins();
    const auto& hb = unpacked[i].histogram.bins();
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t k = 0; k < ha.size(); ++k) {
      EXPECT_TRUE(BitEq(ha[k], hb[k])) << "bin " << k << " of view " << i;
    }
  }
}

// The per-row invariants agree bitwise with what the cold path computes
// from the dense row: the log-Hu map, the ascending bin sum, and exactly
// the bins that are not ±0.0, in ascending order.
TEST(FeatureBankPackTest, RowInvariantsMatchDenseRows) {
  for (const int bins_per_channel : kGeometries) {
    const auto gallery = FuzzGallery(37, 5, bins_per_channel);
    const FeatureBank bank = PackFeatureBank(gallery);
    ASSERT_EQ(bank.nz_offsets.size(), gallery.size() + 1);
    for (std::size_t i = 0; i < gallery.size(); ++i) {
      const LogHuMap map = MakeLogHuMap(gallery[i].hu.data());
      EXPECT_EQ(std::memcmp(&map, &bank.hu_maps[i], sizeof(LogHuMap)), 0)
          << "hu map of view " << i;
      EXPECT_TRUE(BitEq(bank.hist_sums[i], gallery[i].histogram.TotalMass()))
          << "sum of view " << i;
      std::vector<std::uint32_t> want_bins;
      std::vector<double> want_values;
      const auto& bins = gallery[i].histogram.bins();
      for (std::size_t k = 0; k < bins.size(); ++k) {
        if (bins[k] != 0.0) {
          want_bins.push_back(static_cast<std::uint32_t>(k));
          want_values.push_back(bins[k]);
        }
      }
      const std::size_t b = bank.nz_offsets[i];
      const std::size_t e = bank.nz_offsets[i + 1];
      ASSERT_EQ(e - b, want_bins.size()) << "nonzeros of view " << i;
      for (std::size_t k = 0; k < want_bins.size(); ++k) {
        EXPECT_EQ(bank.nz_bins[b + k], want_bins[k]);
        EXPECT_TRUE(BitEq(bank.nz_values[b + k], want_values[k]));
      }
    }
  }
}

TEST(FeatureBankPackTest, PadLanesAreZeroAndRowsAligned) {
  const auto gallery = FuzzGallery(9, 11, /*bins_per_channel=*/3);  // 27 bins.
  const FeatureBank bank = PackFeatureBank(gallery);
  EXPECT_EQ(bank.hist_bins, 27u);
  EXPECT_EQ(bank.hist_stride % 8, 0u);
  for (std::size_t i = 0; i < bank.num_views; ++i) {
    const double* row = bank.HistRow(i);
    for (std::size_t k = bank.hist_bins; k < bank.hist_stride; ++k) {
      EXPECT_EQ(row[k], 0.0) << "pad lane " << k << " of view " << i;
    }
    EXPECT_EQ(bank.HuRow(i)[7], 0.0) << "hu pad of view " << i;
  }
}

// Satellite regression: NormalizeL1 must be idempotent, and packing an
// already-normalized histogram must preserve every bin exactly so the
// bank rows score bit-identically to the original histograms.
TEST(FeatureBankPackTest, NormalizeL1ThenPackPreservesBinsExactly) {
  Rng rng(13);
  ImageFeatures f;
  f.valid = true;
  f.histogram = ColorHistogram(4);
  for (double& bin : f.histogram.bins()) bin = rng.Uniform(0.0, 255.0);
  f.histogram.NormalizeL1();
  const std::vector<double> once = f.histogram.bins();

  // Renormalizing an already-normalized histogram must not drift bins.
  f.histogram.NormalizeL1();
  ASSERT_EQ(f.histogram.bins().size(), once.size());
  for (std::size_t k = 0; k < once.size(); ++k) {
    EXPECT_EQ(f.histogram.bins()[k], once[k]) << "bin " << k;
  }

  // And the SoA pack copies the normalized bins without renormalizing.
  const FeatureBank bank = PackFeatureBank({f});
  const double* row = bank.HistRow(0);
  for (std::size_t k = 0; k < once.size(); ++k) {
    EXPECT_EQ(row[k], once[k]) << "packed bin " << k;
  }
}

// ---------------------------------------------------------------------------
// Differential fuzz: bank kernels vs the dense per-pair reference. Exact
// equality (scores compared bitwise, labels and flags directly).
// ---------------------------------------------------------------------------

class BankKernelFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BankKernelFuzzTest, ShapeArgminMatchesScalarLoop) {
  const auto gallery = FuzzGallery(47, GetParam());
  const auto queries = FuzzGallery(11, GetParam() + 1);
  const FeatureBank bank = PackFeatureBank(gallery);
  const std::size_t n = gallery.size();
  for (const auto method : kShapeMethods) {
    for (const auto& q : queries) {
      for (const auto& [begin, end] :
           {std::pair<std::size_t, std::size_t>{0, n}, {0, n / 2},
            {n / 2, n}, {3, 3}}) {
        ExpectSamePartial(
            BankShapeArgminOverRange(q, bank, begin, end, method),
            DenseShapeArgmin(q, gallery, begin, end, method));
      }
    }
  }
}

TEST_P(BankKernelFuzzTest, ColorArgbestMatchesScalarLoop) {
  for (const int bins_per_channel : kGeometries) {
    const auto gallery = FuzzGallery(47, GetParam(), bins_per_channel);
    const auto queries = FuzzGallery(11, GetParam() + 1, bins_per_channel);
    const FeatureBank bank = PackFeatureBank(gallery);
    const std::size_t n = gallery.size();
    for (const auto method : kColorMethods) {
      for (const auto& q : queries) {
        for (const auto& [begin, end] :
             {std::pair<std::size_t, std::size_t>{0, n}, {0, n / 2},
              {n / 2, n}}) {
          ExpectSamePartial(
              BankColorArgbestOverRange(q, bank, begin, end, method),
              DenseColorArgbest(q, gallery, begin, end, method));
        }
      }
    }
  }
}

TEST_P(BankKernelFuzzTest, HybridScoresMatchScalarLoop) {
  for (const int bins_per_channel : kGeometries) {
    const auto gallery = FuzzGallery(47, GetParam(), bins_per_channel);
    const auto queries = FuzzGallery(11, GetParam() + 1, bins_per_channel);
    const FeatureBank bank = PackFeatureBank(gallery);
    const std::size_t n = gallery.size();
    for (const auto shape_method : kShapeMethods) {
      for (const auto color_method : kColorMethods) {
        for (const auto& q : queries) {
          for (const bool use_shape : {true, false}) {
            for (const bool use_color : {true, false}) {
              std::vector<double> cold_s(n, kUnusableScore);
              std::vector<double> cold_c(n, kUnusableScore);
              std::vector<double> warm_s(n, kUnusableScore);
              std::vector<double> warm_c(n, kUnusableScore);
              std::size_t cold_su = 0, cold_cu = 0, warm_su = 0, warm_cu = 0;
              DenseHybridScores(q, gallery, shape_method, color_method,
                                use_shape, use_color, &cold_s, &cold_c,
                                &cold_su, &cold_cu);
              BankHybridScoresOverRange(q, bank, 0, n, shape_method,
                                        color_method, use_shape, use_color,
                                        &warm_s, &warm_c, &warm_su, &warm_cu);
              EXPECT_EQ(warm_su, cold_su);
              EXPECT_EQ(warm_cu, cold_cu);
              for (std::size_t i = 0; i < n; ++i) {
                EXPECT_TRUE(BitEq(warm_s[i], cold_s[i])) << "shape " << i;
                EXPECT_TRUE(BitEq(warm_c[i], cold_c[i])) << "color " << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST_P(BankKernelFuzzTest, CandidateSubsetMatchesRestrictedScan) {
  const auto gallery = FuzzGallery(47, GetParam());
  const auto queries = FuzzGallery(5, GetParam() + 1);
  const FeatureBank bank = PackFeatureBank(gallery);
  // A sorted subset with gaps; the candidate kernels must reproduce a full
  // scan restricted to exactly these indices.
  const std::vector<int> cands = {0, 1, 5, 8, 13, 21, 34, 40, 46};
  std::vector<ImageFeatures> sub;
  for (int c : cands) sub.push_back(gallery[static_cast<std::size_t>(c)]);
  for (const auto& q : queries) {
    for (const auto method : kShapeMethods) {
      ExpectSamePartial(
          BankShapeArgminOverCandidates(q, bank, cands, method),
          DenseShapeArgmin(q, sub, 0, sub.size(), method));
    }
    for (const auto method : kColorMethods) {
      ExpectSamePartial(
          BankColorArgbestOverCandidates(q, bank, cands, method),
          DenseColorArgbest(q, sub, 0, sub.size(), method));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BankKernelFuzzTest,
                         ::testing::Values(17u, 29u, 43u, 97u));

// ---------------------------------------------------------------------------
// LogHuMap: the mapped shape distance is the same function as the raw one.
// ---------------------------------------------------------------------------

TEST(LogHuMapTest, MappedDistanceIsBitIdenticalToRaw) {
  Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    HuMoments a{}, b{};
    for (int k = 0; k < 7; ++k) {
      a[static_cast<std::size_t>(k)] = rng.Uniform(-1.0, 1.0);
      b[static_cast<std::size_t>(k)] = rng.Uniform(-1.0, 1.0);
    }
    if (trial % 5 == 1) a[2] = 0.0;
    if (trial % 5 == 2) b[4] = std::numeric_limits<double>::quiet_NaN();
    if (trial % 5 == 3) {
      for (double& h : a) h = 0.0;  // Degenerate side.
    }
    const LogHuMap ma = MakeLogHuMap(a.data());
    const LogHuMap mb = MakeLogHuMap(b.data());
    for (const auto method : {ShapeMatchMethod::kI1, ShapeMatchMethod::kI2,
                              ShapeMatchMethod::kI3}) {
      const double raw = MatchShapesRaw(a.data(), b.data(), method);
      const double mapped = MatchShapesFromMaps(ma, mb, method);
      // Bitwise comparison: NaN results must agree too.
      EXPECT_EQ(std::memcmp(&raw, &mapped, sizeof(double)), 0)
          << "trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// GalleryViewIndex: candidate retrieval contract.
// ---------------------------------------------------------------------------

// Gallery whose histograms each hold at most `occupied` nonzero bins, the
// way rendered views fill a median 21 of 512 (0 = every bin occupied).
// Every third row keeps an unnormalized mass in [0.05, 20), so retrieval
// has to rank by the normalized coefficient, not by raw bin values.
std::vector<ImageFeatures> OccupancyGallery(std::size_t n, std::uint64_t seed,
                                            int bins_per_channel,
                                            std::size_t occupied = 24) {
  Rng rng(seed);
  std::vector<ImageFeatures> gallery(n);
  for (std::size_t i = 0; i < n; ++i) {
    ImageFeatures& f = gallery[i];
    f.label = ClassFromIndex(static_cast<int>(i % kNumClasses));
    f.model_id = static_cast<int>(i / kNumClasses);
    f.valid = true;
    for (double& h : f.hu) h = rng.Uniform(-1.0, 1.0);
    f.histogram = ColorHistogram(bins_per_channel);
    std::vector<double>& bins = f.histogram.bins();
    if (occupied == 0) {
      for (double& bin : bins) bin = rng.UniformDouble() + 0.01;
    }
    for (std::size_t k = 0; k < occupied; ++k) {
      bins[rng.Index(bins.size())] = rng.UniformDouble() + 0.01;
    }
    f.histogram.NormalizeL1();
    if (i % 3 == 2) {
      const double mass = rng.Uniform(0.05, 20.0);
      for (double& bin : bins) bin *= mass;
    }
  }
  return gallery;
}

// The index's inputs: the hostile fuzz gallery (mostly dense rows) and
// rendered-occupancy galleries of 64 and 512 bins.
struct IndexGalleries {
  const char* name;
  std::vector<ImageFeatures> gallery;
  std::vector<ImageFeatures> queries;
};

std::vector<IndexGalleries> IndexInputs(std::size_t n, std::size_t nq,
                                        std::uint64_t seed) {
  std::vector<IndexGalleries> inputs;
  inputs.push_back({"fuzz", FuzzGallery(n, seed), FuzzGallery(nq, seed + 1)});
  for (const int bins_per_channel : {4, 8}) {
    inputs.push_back({bins_per_channel == 4 ? "sparse64" : "sparse512",
                      OccupancyGallery(n, seed, bins_per_channel),
                      OccupancyGallery(nq, seed + 1, bins_per_channel)});
  }
  return inputs;
}

TEST(GalleryViewIndexTest, CandidatesAreSortedUniqueAndBounded) {
  for (const IndexGalleries& in : IndexInputs(100, 9, 21)) {
    SCOPED_TRACE(in.name);
    const FeatureBank bank = PackFeatureBank(in.gallery);
    GalleryIndexOptions opts;
    opts.candidates = 12;
    const GalleryViewIndex index = GalleryViewIndex::Build(bank, opts);
    for (const auto& q : in.queries) {
      const auto cands = index.Candidates(q, true, true);
      EXPECT_LE(cands.size(), 24u);  // <= R per modality.
      for (std::size_t i = 1; i < cands.size(); ++i) {
        EXPECT_LT(cands[i - 1], cands[i]);  // Sorted, no duplicates.
      }
      for (int c : cands) {
        ASSERT_GE(c, 0);
        ASSERT_LT(c, static_cast<int>(in.gallery.size()));
        EXPECT_TRUE(in.gallery[static_cast<std::size_t>(c)].valid);
      }
    }
  }
}

// With a candidate budget covering the whole gallery, the exact per-modality
// optimum is guaranteed to be proposed — rerank then reproduces the exact
// result, which is what the engine's identity contract relies on.
TEST(GalleryViewIndexTest, FullBudgetContainsExactOptima) {
  for (const IndexGalleries& in : IndexInputs(60, 7, 31)) {
    SCOPED_TRACE(in.name);
    const auto& gallery = in.gallery;
    const FeatureBank bank = PackFeatureBank(gallery);
    GalleryIndexOptions opts;
    opts.candidates = static_cast<int>(gallery.size());
    const GalleryViewIndex index = GalleryViewIndex::Build(bank, opts);
    for (const auto& q : in.queries) {
      const auto cands = index.Candidates(q, true, true);
      const PartialBest shape = DenseShapeArgmin(
          q, gallery, 0, gallery.size(), ShapeMatchMethod::kI3);
      const PartialBest full_shape =
          BankShapeArgminOverCandidates(q, bank, cands, ShapeMatchMethod::kI3);
      EXPECT_EQ(full_shape.found, shape.found);
      if (shape.found) {
        EXPECT_EQ(full_shape.score, shape.score);
        EXPECT_EQ(full_shape.label, shape.label);
      }
      const PartialBest color = DenseColorArgbest(
          q, gallery, 0, gallery.size(), HistCompareMethod::kHellinger);
      const PartialBest full_color = BankColorArgbestOverCandidates(
          q, bank, cands, HistCompareMethod::kHellinger);
      EXPECT_EQ(full_color.found, color.found);
      if (color.found) {
        EXPECT_EQ(full_color.score, color.score);
        EXPECT_EQ(full_color.label, color.label);
      }
    }
  }
}

// A histogram the colour index ranks: finite, non-negative bins with
// positive mass.
bool Rankable(const ColorHistogram& h) {
  double mass = 0.0;
  for (const double bin : h.bins()) {
    if (!std::isfinite(bin) || bin < 0.0) return false;
    mass += bin;
  }
  return mass > 0.0;
}

// The colour candidates are the top-R views of the dense exact
// CompareHistograms(kHellinger) reference over the rankable views, on
// dense and sparse rows, normalized or not. Retrieval sums in float, so a
// view may swap places with another whose exact squared distance is
// within kTol of the R-th best; nothing further apart may.
TEST(GalleryViewIndexTest, ColorCandidatesAreHellingerTopR) {
  constexpr double kTol = 1e-5;  // On H^2 = 1 - Bhattacharyya coefficient.
  std::vector<IndexGalleries> inputs = IndexInputs(200, 12, 41);
  for (const int bins_per_channel : {4, 8}) {
    inputs.push_back({bins_per_channel == 4 ? "dense64" : "dense512",
                      OccupancyGallery(200, 43, bins_per_channel, 0),
                      OccupancyGallery(12, 44, bins_per_channel, 0)});
  }
  for (const IndexGalleries& in : inputs) {
    SCOPED_TRACE(in.name);
    const FeatureBank bank = PackFeatureBank(in.gallery);
    GalleryIndexOptions opts;
    opts.candidates = 10;
    const GalleryViewIndex index = GalleryViewIndex::Build(bank, opts);
    std::size_t queries_checked = 0;
    for (const auto& q : in.queries) {
      if (!Rankable(q.histogram)) continue;
      ++queries_checked;
      std::vector<double> h2(in.gallery.size(), -1.0);  // -1: not ranked.
      std::vector<double> ranked;
      for (std::size_t i = 0; i < in.gallery.size(); ++i) {
        const ImageFeatures& v = in.gallery[i];
        if (!v.valid || !Rankable(v.histogram)) continue;
        const double h = CompareHistograms(q.histogram, v.histogram,
                                           HistCompareMethod::kHellinger);
        h2[i] = h * h;
        ranked.push_back(h2[i]);
      }
      const std::size_t r = std::min<std::size_t>(10, ranked.size());
      ASSERT_GT(r, 0u);
      std::nth_element(ranked.begin(),
                       ranked.begin() + static_cast<std::ptrdiff_t>(r - 1),
                       ranked.end());
      const double kth = ranked[r - 1];

      const std::vector<int> cands = index.Candidates(q, false, true);
      ASSERT_EQ(cands.size(), r);
      std::vector<char> proposed(in.gallery.size(), 0);
      for (const int c : cands) {
        const auto i = static_cast<std::size_t>(c);
        ASSERT_GE(h2[i], 0.0) << "view " << c << " is not rankable";
        EXPECT_LE(h2[i], kth + kTol) << "view " << c;
        proposed[i] = 1;
      }
      for (std::size_t i = 0; i < in.gallery.size(); ++i) {
        if (h2[i] >= 0.0 && proposed[i] == 0) {
          EXPECT_GE(h2[i], kth - kTol) << "view " << i << " was left out";
        }
      }
    }
    EXPECT_GT(queries_checked, 0u);
  }
}

// The sparse dot reads a query bin only where some view occupies it, so
// the index checks the query itself: a NaN, +inf or float-overflowing bin
// proposes no colour candidates even in a bin no view occupies (the engine
// then full-scans), while negative bins count as zero.
TEST(GalleryViewIndexTest, NonFiniteQueryProposesNoColorCandidates) {
  for (const int bins_per_channel : {4, 8}) {
    SCOPED_TRACE(bins_per_channel);
    std::vector<ImageFeatures> gallery =
        OccupancyGallery(50, 51, bins_per_channel);
    for (ImageFeatures& f : gallery) f.histogram.bins()[0] = 0.0;
    const FeatureBank bank = PackFeatureBank(gallery);
    const GalleryViewIndex index = GalleryViewIndex::Build(bank, {});

    ImageFeatures q = OccupancyGallery(1, 52, bins_per_channel).front();
    q.histogram.bins()[0] = 0.0;
    const std::vector<int> color = index.Candidates(q, false, true);
    const std::vector<int> shape = index.Candidates(q, true, false);
    ASSERT_FALSE(color.empty());

    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), 1e300}) {
      q.histogram.bins()[0] = bad;
      EXPECT_TRUE(index.Candidates(q, false, true).empty()) << bad;
      EXPECT_EQ(index.Candidates(q, true, true), shape) << bad;
    }
    for (const double negative :
         {-0.5, -std::numeric_limits<double>::infinity()}) {
      q.histogram.bins()[0] = negative;
      EXPECT_EQ(index.Candidates(q, false, true), color) << negative;
    }
  }
}

TEST(GalleryViewIndexTest, EmptyModalitiesGiveEmptyCandidates) {
  std::vector<ImageFeatures> gallery(4);
  for (auto& f : gallery) f.valid = false;  // Nothing indexable.
  const FeatureBank bank = PackFeatureBank(gallery);
  const GalleryViewIndex index = GalleryViewIndex::Build(bank, {});
  ImageFeatures q;
  q.valid = true;
  EXPECT_TRUE(index.Candidates(q, true, true).empty());
}

// ---------------------------------------------------------------------------
// Certified scan: BankHybridCertifiedArgminOverRange against the full scan.
// ---------------------------------------------------------------------------

// The full scan's answer for a query with both modalities usable:
// BankHybridScoresOverRange, then the weighted-sum theta and first strict
// minimum over [begin, end), as AssembleHybridTheta and
// BankHybridArgminLabel run them. `index` is the winning view (or `end`).
struct FullScanArgmin {
  PartialBest best;
  std::size_t index = 0;
  std::vector<double> shape;
  std::vector<double> color;
};

FullScanArgmin FullScanWeightedSum(const ImageFeatures& q,
                                   const FeatureBank& bank, std::size_t begin,
                                   std::size_t end, ShapeMatchMethod method,
                                   double alpha, double beta) {
  FullScanArgmin out;
  out.shape.assign(bank.size(), kUnusableScore);
  out.color.assign(bank.size(), kUnusableScore);
  std::size_t shape_usable = 0;
  std::size_t color_usable = 0;
  BankHybridScoresOverRange(q, bank, begin, end, method,
                            HistCompareMethod::kHellinger, true, true,
                            &out.shape, &out.color, &shape_usable,
                            &color_usable);
  out.best.score = kUnusableScore;
  out.index = end;
  for (std::size_t i = begin; i < end; ++i) {
    if (out.shape[i] >= kUnusableScore || out.color[i] >= kUnusableScore) {
      continue;
    }
    const double theta = HybridTheta(alpha, out.shape[i], beta, out.color[i]);
    if (theta < out.best.score) {
      out.best = {theta, bank.labels[i], true};
      out.index = i;
    }
  }
  return out;
}

// Scales every bin: the bound must hold for rows and queries that are not
// L1-normalized, down to masses outside the certified range.
ImageFeatures Scaled(ImageFeatures f, double factor) {
  for (double& bin : f.histogram.bins()) bin *= factor;
  return f;
}

// The fuzz gallery plus what the certified scan must get right on top:
// exact duplicates of earlier rows under another label (θ ties the lower
// index must win), rendered-occupancy rows with unnormalized masses, and
// rows far outside the certified mass range. Queries are the views of a
// second such gallery whose modalities are both usable, each also scaled
// and a few copied from the gallery itself (θ = α·S exactly).
struct CertifiedInputs {
  std::vector<ImageFeatures> gallery;
  std::vector<ImageFeatures> queries;
};

CertifiedInputs CertifiedFuzzInputs(std::uint64_t seed, int bins_per_channel,
                                    std::size_t n) {
  CertifiedInputs in;
  in.gallery = FuzzGallery(n, seed, bins_per_channel);
  for (ImageFeatures& f : OccupancyGallery(n, seed + 7, bins_per_channel)) {
    in.gallery.push_back(std::move(f));
  }
  Rng rng(seed + 11);
  for (std::size_t i = 4; i < in.gallery.size(); i += 5) {
    const ImageFeatures& source = in.gallery[rng.Index(i)];
    ImageFeatures& dup = in.gallery[i];
    dup.hu = source.hu;
    dup.histogram = source.histogram;
    dup.valid = source.valid;
    dup.label = ClassFromIndex((ClassIndex(source.label) + 1) % kNumClasses);
  }
  in.gallery[6] = Scaled(in.gallery[6], 0x1p-420);
  in.gallery[9] = Scaled(in.gallery[9], 0x1p+420);
  in.gallery[13] = Scaled(in.gallery[13], 1e-300);

  std::vector<ImageFeatures> pool = FuzzGallery(n / 2, seed + 1,
                                                bins_per_channel);
  for (ImageFeatures& f : OccupancyGallery(n / 4, seed + 2, bins_per_channel)) {
    pool.push_back(std::move(f));
  }
  for (std::size_t i = 0; i < in.gallery.size(); i += 9) {
    pool.push_back(in.gallery[i]);
  }
  for (const ImageFeatures& f : pool) {
    if (!ShapeModalityUsable(f) || !ColorModalityUsable(f)) continue;
    in.queries.push_back(f);
    in.queries.push_back(Scaled(f, rng.Uniform(0.01, 300.0)));
  }
  in.queries.push_back(Scaled(in.queries.front(), 0x1p-410));
  return in;
}

constexpr std::pair<double, double> kCertifiedWeights[] = {
    {0.3, 0.7}, {0.0, 1.0}, {1.0, 0.0}, {0.5, 0.5}, {2.5, 0.25}};

class CertifiedScanTest : public ::testing::TestWithParam<std::uint64_t> {};

// The certified partial equals the full scan's first strict minimum of θ
// bit for bit (θ, label, found) on every range, and θ_lb <= θ for every
// view with both scores usable, the views it scores included.
TEST_P(CertifiedScanTest, MatchesFullScanArgmin) {
  for (const int bins_per_channel : {4, 8, 16}) {
    SCOPED_TRACE(bins_per_channel);
    const std::size_t n = bins_per_channel == 16 ? 40 : 90;
    const CertifiedInputs in =
        CertifiedFuzzInputs(GetParam(), bins_per_channel, n);
    const FeatureBank bank = PackFeatureBank(in.gallery);
    const std::size_t size = bank.size();
    ASSERT_GT(in.queries.size(), 10u);
    for (const auto method : kShapeMethods) {
      for (const auto& [alpha, beta] : kCertifiedWeights) {
        for (const ImageFeatures& q : in.queries) {
          const HellingerLowerBound h_lower(q, bank);
          for (const auto& [begin, end] :
               {std::pair<std::size_t, std::size_t>{0, size}, {0, size / 3},
                {size / 3, size}, {5, 5}}) {
            const FullScanArgmin full =
                FullScanWeightedSum(q, bank, begin, end, method, alpha, beta);
            std::size_t evals = 0;
            const PartialBest certified = BankHybridCertifiedArgminOverRange(
                q, bank, begin, end, method, alpha, beta, &evals);
            ExpectSamePartial(certified, full.best);
            EXPECT_LE(evals, end - begin);
            for (std::size_t i = begin; i < end; ++i) {
              if (full.shape[i] >= kUnusableScore ||
                  full.color[i] >= kUnusableScore) {
                continue;
              }
              const double h_lb = h_lower(i);
              EXPECT_LE(h_lb, full.color[i]) << "view " << i;
              EXPECT_LE(HybridTheta(alpha, full.shape[i], beta, h_lb),
                        HybridTheta(alpha, full.shape[i], beta, full.color[i]))
                  << "view " << i;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertifiedScanTest,
                         ::testing::Values(17u, 29u, 43u, 97u));

// A duplicate of the winning view under another label, after it in the
// bank, ties θ exactly; the lower index keeps the answer, and so does a
// range that starts at the duplicate.
TEST(CertifiedScanTest, ExactTieGoesToLowerIndex) {
  std::vector<ImageFeatures> gallery = OccupancyGallery(30, 61, 8);
  const ImageFeatures query = gallery[11];
  gallery[20] = gallery[11];
  gallery[20].label =
      ClassFromIndex((ClassIndex(gallery[11].label) + 1) % kNumClasses);
  const FeatureBank bank = PackFeatureBank(gallery);
  std::size_t evals = 0;
  const PartialBest all = BankHybridCertifiedArgminOverRange(
      query, bank, 0, bank.size(), ShapeMatchMethod::kI3, 0.3, 0.7, &evals);
  ASSERT_TRUE(all.found);
  EXPECT_EQ(all.label, gallery[11].label);
  EXPECT_EQ(all.score, 0.0);
  const PartialBest tail = BankHybridCertifiedArgminOverRange(
      query, bank, 12, bank.size(), ShapeMatchMethod::kI3, 0.3, 0.7, &evals);
  ASSERT_TRUE(tail.found);
  EXPECT_EQ(tail.label, gallery[20].label);
}

// Rows the bound cannot certify get H_lb = 0 and are scored exactly;
// a gallery with no view whose scores are both usable answers nothing.
TEST(CertifiedScanTest, UncertifiedRowsHaveZeroBound) {
  std::vector<ImageFeatures> gallery = OccupancyGallery(6, 71, 4);
  gallery[0].histogram.bins().assign(gallery[0].histogram.num_bins(), 0.0);
  gallery[1].histogram.bins()[3] = -0.5;
  gallery[2].histogram.bins()[5] = std::numeric_limits<double>::infinity();
  gallery[3].histogram.bins()[7] = std::numeric_limits<double>::quiet_NaN();
  gallery[4] = Scaled(gallery[4], 0x1p-450);
  const FeatureBank bank = PackFeatureBank(gallery);
  const ImageFeatures query = OccupancyGallery(1, 72, 4).front();
  const HellingerLowerBound h_lower(query, bank);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(bank.bound_ok[i], 0) << "view " << i;
    EXPECT_EQ(h_lower(i), 0.0) << "view " << i;
  }
  EXPECT_EQ(bank.bound_ok[5], 1);

  std::vector<ImageFeatures> dead(3, gallery[3]);
  dead[1].valid = false;
  const FeatureBank dead_bank = PackFeatureBank(dead);
  std::size_t evals = 0;
  EXPECT_FALSE(BankHybridCertifiedArgminOverRange(query, dead_bank, 0, 3,
                                                  ShapeMatchMethod::kI3, 0.3,
                                                  0.7, &evals)
                   .found);
}

// On rendered-occupancy rows the bound prunes: far fewer exact colour
// scores than views.
TEST(CertifiedScanTest, PrunesRenderedOccupancyGallery) {
  const std::vector<ImageFeatures> gallery = OccupancyGallery(600, 81, 8);
  const std::vector<ImageFeatures> queries = OccupancyGallery(20, 82, 8);
  const FeatureBank bank = PackFeatureBank(gallery);
  std::size_t evals = 0;
  for (const ImageFeatures& q : queries) {
    (void)BankHybridCertifiedArgminOverRange(
        q, bank, 0, bank.size(), ShapeMatchMethod::kI3, 0.3, 0.7, &evals);
  }
  EXPECT_LT(evals, queries.size() * bank.size() / 4);
}

// The margin derived from γ_n in feature_bank.h.
TEST(CertifiedScanTest, MarginFollowsFromGamma) {
  EXPECT_NEAR(CertifiedBoundMargin(512, 64), 1.526e-5, 1e-8);
  EXPECT_GT(CertifiedBoundMargin(4096, 512), CertifiedBoundMargin(512, 64));
}

}  // namespace
}  // namespace snor
