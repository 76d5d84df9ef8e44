#include "features/histogram.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "img/draw.h"

namespace snor {
namespace {

ImageU8 SolidRgb(int w, int h, Rgb c) {
  ImageU8 img(w, h, 3);
  FillRect(img, 0, 0, w, h, c);
  return img;
}

TEST(ColorHistogramTest, TotalMassEqualsPixelCount) {
  ImageU8 img = SolidRgb(10, 7, Rgb{200, 40, 90});
  ColorHistogram h = ColorHistogram::Compute(img);
  EXPECT_DOUBLE_EQ(h.TotalMass(), 70.0);
}

TEST(ColorHistogramTest, SolidColorLandsInOneBin) {
  ImageU8 img = SolidRgb(4, 4, Rgb{200, 40, 90});
  ColorHistogram h = ColorHistogram::Compute(img, nullptr, 8);
  // 200/32=6, 40/32=1, 90/32=2.
  EXPECT_DOUBLE_EQ(h.At(6, 1, 2), 16.0);
  int nonzero = 0;
  for (double v : h.bins()) {
    if (v > 0) ++nonzero;
  }
  EXPECT_EQ(nonzero, 1);
}

TEST(ColorHistogramTest, MaskSkipsPixels) {
  ImageU8 img = SolidRgb(4, 4, Rgb{10, 10, 10});
  ImageU8 mask(4, 4, 1, 0);
  mask.at(0, 0) = 255;
  mask.at(3, 3) = 255;
  ColorHistogram h = ColorHistogram::Compute(img, &mask);
  EXPECT_DOUBLE_EQ(h.TotalMass(), 2.0);
}

TEST(ColorHistogramTest, NormalizeL1SumsToOne) {
  ImageU8 img(8, 8, 3);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x)
      img.SetPixel(y, x,
                   {static_cast<std::uint8_t>(x * 32),
                    static_cast<std::uint8_t>(y * 32),
                    static_cast<std::uint8_t>((x * y) % 256)});
  ColorHistogram h = ColorHistogram::Compute(img);
  h.NormalizeL1();
  EXPECT_NEAR(h.TotalMass(), 1.0, 1e-12);
}

TEST(ColorHistogramTest, NormalizeEmptyIsNoop) {
  ColorHistogram h(8);
  h.NormalizeL1();
  EXPECT_DOUBLE_EQ(h.TotalMass(), 0.0);
}

TEST(ColorHistogramTest, NonPowerOfTwoBins) {
  ImageU8 img = SolidRgb(2, 2, Rgb{255, 0, 128});
  ColorHistogram h = ColorHistogram::Compute(img, nullptr, 10);
  EXPECT_EQ(h.num_bins(), 1000u);
  // 255*10/256 = 9, 0 -> 0, 128*10/256 = 5.
  EXPECT_DOUBLE_EQ(h.At(9, 0, 5), 4.0);
}

class HistIdentityTest
    : public ::testing::TestWithParam<HistCompareMethod> {};

TEST_P(HistIdentityTest, SelfComparisonIsPerfect) {
  ImageU8 img(16, 16, 3);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x)
      img.SetPixel(y, x,
                   {static_cast<std::uint8_t>(x * 16),
                    static_cast<std::uint8_t>(y * 16),
                    static_cast<std::uint8_t>((x + y) * 8)});
  ColorHistogram h = ColorHistogram::Compute(img);
  h.NormalizeL1();
  const double v = CompareHistograms(h, h, GetParam());
  switch (GetParam()) {
    case HistCompareMethod::kCorrelation:
      EXPECT_NEAR(v, 1.0, 1e-9);
      break;
    case HistCompareMethod::kChiSquare:
      EXPECT_NEAR(v, 0.0, 1e-12);
      break;
    case HistCompareMethod::kIntersection:
      EXPECT_NEAR(v, 1.0, 1e-9);  // L1-normalized: sum min = 1.
      break;
    case HistCompareMethod::kHellinger:
      EXPECT_NEAR(v, 0.0, 1e-6);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, HistIdentityTest,
                         ::testing::Values(HistCompareMethod::kCorrelation,
                                           HistCompareMethod::kChiSquare,
                                           HistCompareMethod::kIntersection,
                                           HistCompareMethod::kHellinger));

// Regression tests for the fully-masked-crop path: a segmentation that
// masks out every pixel produces an all-zero histogram, and comparisons
// against it must never report a perfect match. Hellinger used to return
// 0 (identical) on a zero denominator, making an empty crop the nearest
// neighbour of every gallery view.
TEST(EmptyHistCompareTest, HellingerWorstCaseAgainstItself) {
  ImageU8 img(4, 4, 3, 100);
  ImageU8 mask(4, 4, 1, 0);  // Everything masked out.
  ColorHistogram empty = ColorHistogram::Compute(img, &mask);
  EXPECT_DOUBLE_EQ(empty.TotalMass(), 0.0);
  EXPECT_DOUBLE_EQ(
      CompareHistograms(empty, empty, HistCompareMethod::kHellinger), 1.0);
}

TEST(EmptyHistCompareTest, HellingerWorstCaseAgainstRealHistogram) {
  ColorHistogram empty(4);
  ColorHistogram real(4);
  real.At(1, 2, 3) = 1.0;
  EXPECT_DOUBLE_EQ(
      CompareHistograms(empty, real, HistCompareMethod::kHellinger), 1.0);
  EXPECT_DOUBLE_EQ(
      CompareHistograms(real, empty, HistCompareMethod::kHellinger), 1.0);
}

TEST(EmptyHistCompareTest, IntersectionReportsNoOverlap) {
  ColorHistogram empty(4);
  ColorHistogram real(4);
  real.At(0, 0, 0) = 1.0;
  EXPECT_DOUBLE_EQ(
      CompareHistograms(empty, real, HistCompareMethod::kIntersection), 0.0);
  EXPECT_DOUBLE_EQ(
      CompareHistograms(empty, empty, HistCompareMethod::kIntersection), 0.0);
}

TEST(EmptyHistCompareTest, ChiSquareSkipsZeroReferenceBins) {
  // Chi-square only accumulates over bins where the reference `a` has
  // mass, so an empty reference scores 0 by construction; a real
  // reference against an empty probe scores its full mass.
  ColorHistogram empty(4);
  ColorHistogram real(4);
  real.At(0, 0, 0) = 2.0;
  EXPECT_DOUBLE_EQ(
      CompareHistograms(empty, real, HistCompareMethod::kChiSquare), 0.0);
  EXPECT_DOUBLE_EQ(
      CompareHistograms(real, empty, HistCompareMethod::kChiSquare), 2.0);
}

TEST(EmptyHistCompareTest, CorrelationTreatsFlatAsCorrelated) {
  // Two deviation-free histograms are deemed perfectly correlated; the
  // guard exists for flat (e.g. uniform) histograms, not just empty ones.
  ColorHistogram empty(4);
  EXPECT_DOUBLE_EQ(
      CompareHistograms(empty, empty, HistCompareMethod::kCorrelation), 1.0);
}

TEST(EmptyHistCompareTest, CorrelationOneSidedFlatIsAntiCorrelated) {
  // Regression: exactly one flat operand used to return 1.0 (the both-flat
  // answer), letting a fully masked-out histogram beat every real one in a
  // correlation argmax. A 0/0 Pearson coefficient against a real histogram
  // must report the similarity floor instead.
  ColorHistogram flat(4);
  ColorHistogram real(4);
  real.At(1, 2, 3) = 0.8;
  real.At(0, 0, 0) = 0.2;
  EXPECT_DOUBLE_EQ(
      CompareHistograms(flat, real, HistCompareMethod::kCorrelation), -1.0);
  EXPECT_DOUBLE_EQ(
      CompareHistograms(real, flat, HistCompareMethod::kCorrelation), -1.0);

  // Uniform (non-empty but deviation-free) histograms count as flat too.
  ColorHistogram uniform(4);
  for (double& bin : uniform.bins()) {
    bin = 1.0 / static_cast<double>(uniform.num_bins());
  }
  EXPECT_DOUBLE_EQ(
      CompareHistograms(uniform, real, HistCompareMethod::kCorrelation),
      -1.0);
  EXPECT_DOUBLE_EQ(
      CompareHistograms(uniform, uniform, HistCompareMethod::kCorrelation),
      1.0);
}

// Regression tests for non-finite bins: every metric must report NaN when
// either operand holds a NaN or infinite bin, so the classifiers' isfinite
// skip discards the pair. Before, Hellinger returned 0.0 (a perfect match)
// for any such pair because std::max(0.0, NaN) is 0.0, Intersection hid a
// gallery-side NaN through std::min, and Chi-square hid a query-side NaN
// through its `a > 0` guard.
// 512 bins, bin i holding (7i + offset) mod 13 before normalization.
ColorHistogram Spread512(std::size_t offset) {
  ColorHistogram h(8);
  for (std::size_t i = 0; i < h.num_bins(); ++i) {
    h.bins()[i] = static_cast<double>((i * 7 + offset) % 13);
  }
  h.NormalizeL1();
  return h;
}

void ExpectNaNForNonFiniteBins(HistCompareMethod method) {
  const ColorHistogram clean_a = Spread512(1);
  const ColorHistogram clean_b = Spread512(5);
  ASSERT_EQ(clean_b.bins()[3], 0.0);
  ASSERT_EQ(clean_a.bins()[11], 0.0);
  ASSERT_TRUE(std::isfinite(CompareHistograms(clean_a, clean_b, method)));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    // One corrupt bin on either side: bin 0 is occupied on both sides,
    // bin 3 is empty in clean_b and bin 11 is empty in clean_a.
    for (const std::size_t bin : {0u, 3u, 11u}) {
      ColorHistogram bad_a = clean_a;
      ColorHistogram bad_b = clean_b;
      bad_a.bins()[bin] = bad;
      bad_b.bins()[bin] = bad;
      EXPECT_TRUE(std::isnan(CompareHistograms(bad_a, clean_b, method)))
          << "query-side " << bad << " in bin " << bin;
      EXPECT_TRUE(std::isnan(CompareHistograms(clean_a, bad_b, method)))
          << "gallery-side " << bad << " in bin " << bin;
    }
  }
}

TEST(NonFiniteHistCompareTest, CorrelationReturnsNaN) {
  ExpectNaNForNonFiniteBins(HistCompareMethod::kCorrelation);
  // Against a flat operand the one-side-flat rule used to answer -1.0 and
  // hide the NaN on the other side.
  ColorHistogram flat(8);
  ColorHistogram bad = Spread512(1);
  bad.bins()[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(
      CompareHistograms(bad, flat, HistCompareMethod::kCorrelation)));
  EXPECT_TRUE(std::isnan(
      CompareHistograms(flat, bad, HistCompareMethod::kCorrelation)));
}

TEST(NonFiniteHistCompareTest, ChiSquareReturnsNaN) {
  ExpectNaNForNonFiniteBins(HistCompareMethod::kChiSquare);
}

TEST(NonFiniteHistCompareTest, IntersectionReturnsNaN) {
  ExpectNaNForNonFiniteBins(HistCompareMethod::kIntersection);
}

TEST(NonFiniteHistCompareTest, HellingerReturnsNaN) {
  ExpectNaNForNonFiniteBins(HistCompareMethod::kHellinger);
  // A negative bin makes a sqrt(a * b) term NaN, which the clamp used to
  // turn into a perfect 0.0 as well.
  ColorHistogram negative = Spread512(1);
  negative.bins()[4] = -negative.bins()[4];
  ASSERT_GT(Spread512(5).bins()[4], 0.0);
  EXPECT_TRUE(std::isnan(CompareHistograms(negative, Spread512(5),
                                           HistCompareMethod::kHellinger)));
}

TEST(HistCompareTest, RawCoreMatchesWrapper) {
  ColorHistogram a(4);
  ColorHistogram b(4);
  a.At(0, 1, 2) = 0.6;
  a.At(2, 2, 2) = 0.4;
  b.At(0, 1, 2) = 0.3;
  b.At(3, 0, 1) = 0.7;
  for (const auto method :
       {HistCompareMethod::kCorrelation, HistCompareMethod::kChiSquare,
        HistCompareMethod::kIntersection, HistCompareMethod::kHellinger}) {
    EXPECT_EQ(CompareHistogramsRaw(a.bins().data(), b.bins().data(),
                                   a.num_bins(), method),
              CompareHistograms(a, b, method));
  }
}

TEST(ColorHistogramTest, NormalizeL1IsIdempotent) {
  // Renormalizing an already-normalized histogram must not drift any bin:
  // dividing by a total of 0.99999... would break the bit-identity
  // contract between cold histograms and packed SoA bank rows.
  ColorHistogram h(4);
  h.At(0, 0, 0) = 3.0;
  h.At(1, 2, 3) = 7.0;
  h.At(3, 3, 3) = 11.0;
  h.NormalizeL1();
  const std::vector<double> once = h.bins();
  h.NormalizeL1();
  ASSERT_EQ(h.bins().size(), once.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(h.bins()[i], once[i]) << "bin " << i;
  }
}

TEST(HistCompareTest, DisjointHistogramsAreMaximallyDissimilar) {
  ColorHistogram a(4);
  ColorHistogram b(4);
  a.At(0, 0, 0) = 1.0;
  b.At(3, 3, 3) = 1.0;
  EXPECT_NEAR(
      CompareHistograms(a, b, HistCompareMethod::kIntersection), 0.0, 1e-12);
  EXPECT_NEAR(CompareHistograms(a, b, HistCompareMethod::kHellinger), 1.0,
              1e-9);
  EXPECT_LT(CompareHistograms(a, b, HistCompareMethod::kCorrelation), 0.1);
}

TEST(HistCompareTest, HellingerIsSymmetric) {
  ColorHistogram a(4);
  ColorHistogram b(4);
  a.At(0, 0, 0) = 0.7;
  a.At(1, 1, 1) = 0.3;
  b.At(0, 0, 0) = 0.2;
  b.At(2, 2, 2) = 0.8;
  EXPECT_NEAR(CompareHistograms(a, b, HistCompareMethod::kHellinger),
              CompareHistograms(b, a, HistCompareMethod::kHellinger), 1e-12);
}

TEST(HistCompareTest, IntersectionIsSymmetric) {
  ColorHistogram a(4);
  ColorHistogram b(4);
  a.At(0, 0, 0) = 0.5;
  a.At(1, 0, 0) = 0.5;
  b.At(0, 0, 0) = 0.25;
  b.At(1, 1, 1) = 0.75;
  EXPECT_NEAR(CompareHistograms(a, b, HistCompareMethod::kIntersection),
              CompareHistograms(b, a, HistCompareMethod::kIntersection),
              1e-12);
  EXPECT_NEAR(CompareHistograms(a, b, HistCompareMethod::kIntersection),
              0.25, 1e-12);
}

TEST(HistCompareTest, ChiSquareKnownValue) {
  ColorHistogram a(2);
  ColorHistogram b(2);
  a.At(0, 0, 0) = 4.0;
  b.At(0, 0, 0) = 2.0;
  // (4-2)^2/4 = 1.
  EXPECT_NEAR(CompareHistograms(a, b, HistCompareMethod::kChiSquare), 1.0,
              1e-12);
}

TEST(HistCompareTest, ChiSquareIgnoresZeroReferenceBins) {
  ColorHistogram a(2);
  ColorHistogram b(2);
  b.At(1, 1, 1) = 5.0;  // a is zero there -> no contribution.
  EXPECT_NEAR(CompareHistograms(a, b, HistCompareMethod::kChiSquare), 0.0,
              1e-12);
}

TEST(HistCompareTest, CorrelationDetectsOppositeTrend) {
  ColorHistogram a(2);
  ColorHistogram b(2);
  // Over the 8 bins: a = [1,0,...], b = [0,1,...] -> negative correlation.
  a.At(0, 0, 0) = 1.0;
  b.At(0, 0, 1) = 1.0;
  EXPECT_LT(CompareHistograms(a, b, HistCompareMethod::kCorrelation), 0.0);
}

TEST(HistCompareTest, SimilarColorsScoreBetterThanDifferent) {
  // Red-ish vs slightly-different-red-ish vs blue.
  ImageU8 red1 = SolidRgb(8, 8, Rgb{220, 30, 30});
  ImageU8 red2 = SolidRgb(8, 8, Rgb{200, 50, 40});
  ImageU8 blue = SolidRgb(8, 8, Rgb{20, 30, 220});
  // Add a little noise so multiple bins are populated.
  for (int i = 0; i < 8; ++i) {
    red1.SetPixel(i, i, {static_cast<std::uint8_t>(180 + i * 8), 60, 60});
    red2.SetPixel(i, i, {static_cast<std::uint8_t>(170 + i * 8), 70, 60});
    blue.SetPixel(i, i, {60, 60, static_cast<std::uint8_t>(180 + i * 8)});
  }
  auto hist = [](const ImageU8& img) {
    ColorHistogram h = ColorHistogram::Compute(img);
    h.NormalizeL1();
    return h;
  };
  const ColorHistogram h1 = hist(red1);
  const ColorHistogram h2 = hist(red2);
  const ColorHistogram h3 = hist(blue);
  EXPECT_LT(CompareHistograms(h1, h2, HistCompareMethod::kHellinger),
            CompareHistograms(h1, h3, HistCompareMethod::kHellinger));
  EXPECT_GT(CompareHistograms(h1, h2, HistCompareMethod::kIntersection),
            CompareHistograms(h1, h3, HistCompareMethod::kIntersection));
}

TEST(HistCompareTest, IsSimilarityMetricFlags) {
  EXPECT_TRUE(IsSimilarityMetric(HistCompareMethod::kCorrelation));
  EXPECT_TRUE(IsSimilarityMetric(HistCompareMethod::kIntersection));
  EXPECT_FALSE(IsSimilarityMetric(HistCompareMethod::kChiSquare));
  EXPECT_FALSE(IsSimilarityMetric(HistCompareMethod::kHellinger));
}

TEST(HistCompareTest, HellingerBounded) {
  ColorHistogram a(4);
  ColorHistogram b(4);
  a.At(0, 0, 0) = 0.6;
  a.At(1, 2, 3) = 0.4;
  b.At(0, 0, 0) = 0.1;
  b.At(3, 3, 3) = 0.9;
  const double v = CompareHistograms(a, b, HistCompareMethod::kHellinger);
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 1.0);
}

}  // namespace
}  // namespace snor
