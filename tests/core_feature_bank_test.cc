#include "core/feature_bank.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/classifiers.h"
#include "features/matcher.h"
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
// Float descriptor bank: the retrieval-only squared-L2 kernel.
// ---------------------------------------------------------------------------

std::vector<FloatDescriptor> RandomFloatDescriptors(std::size_t n,
                                                    std::size_t dim,
                                                    Rng& rng) {
  std::vector<FloatDescriptor> out;
  for (std::size_t i = 0; i < n; ++i) {
    FloatDescriptor d(dim);
    for (float& v : d) v = static_cast<float>(rng.Normal());
    out.push_back(std::move(d));
  }
  return out;
}

// The retrieval-only squared-L2 kernel is allowed to differ in rounding but
// must rank like the exact kernel: same argmin, and each value within
// relative tolerance of the exact distance squared.
TEST(DescriptorBankTest, SquaredL2RanksLikeExactL2) {
  Rng rng(7);
  const auto descs = RandomFloatDescriptors(64, 48, rng);
  const auto queries = RandomFloatDescriptors(8, 48, rng);
  const FloatDescriptorBank bank = PackFloatDescriptors(descs);
  std::vector<float> sq(bank.count);
  for (const auto& q : queries) {
    BankFloatSquaredL2(bank, q, sq.data());
    std::size_t best_sq = 0, best_exact = 0;
    for (std::size_t i = 0; i < descs.size(); ++i) {
      const float exact = FloatDistance(q, descs[i], FloatNorm::kL2);
      EXPECT_NEAR(sq[i], exact * exact, 1e-3 * (1.0 + exact * exact)) << i;
      if (sq[i] < sq[best_sq]) best_sq = i;
      if (FloatDistance(q, descs[i], FloatNorm::kL2) <
          FloatDistance(q, descs[best_exact], FloatNorm::kL2)) {
        best_exact = i;
      }
    }
    EXPECT_EQ(best_sq, best_exact);
  }
}

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

TEST(GalleryViewIndexTest, CandidatesAreSortedUniqueAndBounded) {
  const auto gallery = FuzzGallery(100, 21);
  const auto queries = FuzzGallery(9, 22);
  const FeatureBank bank = PackFeatureBank(gallery);
  GalleryIndexOptions opts;
  opts.candidates = 12;
  const GalleryViewIndex index = GalleryViewIndex::Build(bank, opts);
  for (const auto& q : queries) {
    const auto cands = index.Candidates(q, true, true);
    EXPECT_LE(cands.size(), 24u);  // <= R per modality.
    for (std::size_t i = 1; i < cands.size(); ++i) {
      EXPECT_LT(cands[i - 1], cands[i]);  // Sorted, no duplicates.
    }
    for (int c : cands) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, static_cast<int>(gallery.size()));
      EXPECT_TRUE(gallery[static_cast<std::size_t>(c)].valid);
    }
  }
}

// With a candidate budget covering the whole gallery, the exact per-modality
// optimum is guaranteed to be proposed — rerank then reproduces the exact
// result, which is what the engine's identity contract relies on.
TEST(GalleryViewIndexTest, FullBudgetContainsExactOptima) {
  const auto gallery = FuzzGallery(60, 31);
  const auto queries = FuzzGallery(7, 32);
  const FeatureBank bank = PackFeatureBank(gallery);
  GalleryIndexOptions opts;
  opts.candidates = static_cast<int>(gallery.size());
  const GalleryViewIndex index = GalleryViewIndex::Build(bank, opts);
  for (const auto& q : queries) {
    const auto cands = index.Candidates(q, true, true);
    const PartialBest shape = DenseShapeArgmin(q, gallery, 0, gallery.size(),
                                               ShapeMatchMethod::kI3);
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

TEST(GalleryViewIndexTest, EmptyModalitiesGiveEmptyCandidates) {
  std::vector<ImageFeatures> gallery(4);
  for (auto& f : gallery) f.valid = false;  // Nothing indexable.
  const FeatureBank bank = PackFeatureBank(gallery);
  const GalleryViewIndex index = GalleryViewIndex::Build(bank, {});
  ImageFeatures q;
  q.valid = true;
  EXPECT_TRUE(index.Candidates(q, true, true).empty());
}

}  // namespace
}  // namespace snor
