#include "img/threshold.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "img/color.h"
#include "util/rng.h"

namespace snor {
namespace {

ImageU8 MakeGradient() {
  ImageU8 img(4, 1, 1);
  img.at(0, 0) = 10;
  img.at(0, 1) = 100;
  img.at(0, 2) = 150;
  img.at(0, 3) = 240;
  return img;
}

TEST(ThresholdTest, BinaryMode) {
  ImageU8 out = Threshold(MakeGradient(), 120, 255, ThresholdMode::kBinary);
  EXPECT_EQ(out.at(0, 0), 0);
  EXPECT_EQ(out.at(0, 1), 0);
  EXPECT_EQ(out.at(0, 2), 255);
  EXPECT_EQ(out.at(0, 3), 255);
}

TEST(ThresholdTest, BinaryInvMode) {
  ImageU8 out =
      Threshold(MakeGradient(), 120, 255, ThresholdMode::kBinaryInv);
  EXPECT_EQ(out.at(0, 0), 255);
  EXPECT_EQ(out.at(0, 1), 255);
  EXPECT_EQ(out.at(0, 2), 0);
  EXPECT_EQ(out.at(0, 3), 0);
}

TEST(ThresholdTest, ThresholdIsExclusive) {
  // dst = maxval iff src > thresh (strict), matching OpenCV.
  ImageU8 img(1, 1, 1);
  img.at(0, 0) = 120;
  EXPECT_EQ(Threshold(img, 120, 255, ThresholdMode::kBinary).at(0, 0), 0);
  EXPECT_EQ(Threshold(img, 119, 255, ThresholdMode::kBinary).at(0, 0), 255);
}

TEST(ThresholdTest, CustomMaxval) {
  ImageU8 out = Threshold(MakeGradient(), 120, 1, ThresholdMode::kBinary);
  EXPECT_EQ(out.at(0, 3), 1);
}

TEST(ThresholdTest, ThresholdRgbEqualsGrayThenThreshold) {
  // Every colour whose 1000 x luma ends in 500 (a rounding tie for some
  // threshold), then seeded random colours; every threshold, both modes.
  std::vector<Rgb> colours;
  for (int r = 0; r < 256; ++r)
    for (int g = 0; g < 256; ++g)
      for (int b = 0; b < 256; ++b)
        if ((299 * r + 587 * g + 114 * b) % 1000 == 500)
          colours.push_back({static_cast<std::uint8_t>(r),
                             static_cast<std::uint8_t>(g),
                             static_cast<std::uint8_t>(b)});
  Rng rng(7);
  for (int i = 0; i < 4096; ++i) {
    colours.push_back({static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
                       static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
                       static_cast<std::uint8_t>(rng.UniformInt(0, 255))});
  }
  const int width = 97;  // Rows with and without ties.
  const int height = static_cast<int>((colours.size() + width - 1) / width);
  ImageU8 rgb(width, height, 3, 0);
  for (std::size_t i = 0; i < colours.size(); ++i) {
    const Rgb& c = colours[i];
    rgb.SetPixel(static_cast<int>(i / width), static_cast<int>(i % width),
                 {c.r, c.g, c.b});
  }
  const ImageU8 gray = RgbToGray(rgb);
  for (int t = 0; t < 256; ++t) {
    for (const ThresholdMode mode :
         {ThresholdMode::kBinary, ThresholdMode::kBinaryInv}) {
      const auto thresh = static_cast<std::uint8_t>(t);
      const ImageU8 fused = ThresholdRgb(rgb, thresh, 200, mode);
      const ImageU8 two_pass = Threshold(gray, thresh, 200, mode);
      ASSERT_TRUE(std::equal(fused.data(), fused.data() + fused.size(),
                             two_pass.data()))
          << "threshold " << t;
    }
  }
}

TEST(ThresholdTest, ThresholdRgbAt255IsNeverAbove) {
  ImageU8 white(3, 2, 3, 255);
  const ImageU8 out = ThresholdRgb(white, 255, 255, ThresholdMode::kBinary);
  EXPECT_TRUE(std::all_of(out.data(), out.data() + out.size(),
                          [](std::uint8_t v) { return v == 0; }));
}

TEST(OtsuTest, SeparatesBimodalHistogram) {
  // Two clusters: ~40 and ~200; Otsu should land between them.
  ImageU8 img(100, 2, 1);
  for (int x = 0; x < 100; ++x) {
    img.at(0, x) = static_cast<std::uint8_t>(35 + (x % 10));
    img.at(1, x) = static_cast<std::uint8_t>(195 + (x % 10));
  }
  const std::uint8_t t = OtsuThreshold(img);
  EXPECT_GE(t, 44);  // Top of the low cluster.
  EXPECT_LT(t, 195);
}

TEST(OtsuTest, UniformImageDoesNotCrash) {
  ImageU8 img(8, 8, 1, 77);
  const std::uint8_t t = OtsuThreshold(img);
  EXPECT_LE(t, 77);
}

TEST(OtsuTest, ThresholdOtsuProducesBinaryImage) {
  ImageU8 img(10, 1, 1);
  for (int x = 0; x < 10; ++x)
    img.at(0, x) = static_cast<std::uint8_t>(x < 5 ? 20 : 220);
  ImageU8 out = ThresholdOtsu(img, ThresholdMode::kBinary);
  for (int x = 0; x < 10; ++x) {
    EXPECT_TRUE(out.at(0, x) == 0 || out.at(0, x) == 255);
  }
  EXPECT_EQ(out.at(0, 0), 0);
  EXPECT_EQ(out.at(0, 9), 255);
}

}  // namespace
}  // namespace snor
