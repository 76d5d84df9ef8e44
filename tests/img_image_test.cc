#include "img/image.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "img/color.h"

namespace snor {
namespace {

TEST(ImageTest, ConstructsWithFill) {
  ImageU8 img(4, 3, 3, 7);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.channels(), 3);
  EXPECT_EQ(img.size(), 36u);
  EXPECT_EQ(img.at(2, 3, 2), 7);
}

TEST(ImageTest, DefaultIsEmpty) {
  ImageU8 img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.size(), 0u);
}

TEST(ImageTest, AtReadsAndWrites) {
  ImageU8 img(5, 5, 1);
  img.at(2, 3) = 42;
  EXPECT_EQ(img.at(2, 3), 42);
  EXPECT_EQ(img.at(3, 2), 0);
}

TEST(ImageTest, InBounds) {
  ImageU8 img(3, 2, 1);
  EXPECT_TRUE(img.InBounds(0, 0));
  EXPECT_TRUE(img.InBounds(2, 1));
  EXPECT_FALSE(img.InBounds(3, 0));
  EXPECT_FALSE(img.InBounds(0, 2));
  EXPECT_FALSE(img.InBounds(-1, 0));
}

TEST(ImageTest, AtClampedReplicatesBorder) {
  ImageU8 img(2, 2, 1);
  img.at(0, 0) = 1;
  img.at(0, 1) = 2;
  img.at(1, 0) = 3;
  img.at(1, 1) = 4;
  EXPECT_EQ(img.AtClamped(-5, -5), 1);
  EXPECT_EQ(img.AtClamped(-1, 10), 2);
  EXPECT_EQ(img.AtClamped(10, -1), 3);
  EXPECT_EQ(img.AtClamped(10, 10), 4);
}

TEST(ImageTest, RowPointerIsContiguous) {
  ImageU8 img(3, 2, 2);
  img.at(1, 2, 1) = 9;
  const std::uint8_t* row = img.Row(1);
  EXPECT_EQ(row[2 * 2 + 1], 9);
}

TEST(ImageTest, FillSetsAllSamples) {
  ImageU8 img(3, 3, 3);
  img.Fill(11);
  for (int y = 0; y < 3; ++y)
    for (int x = 0; x < 3; ++x)
      for (int c = 0; c < 3; ++c) EXPECT_EQ(img.at(y, x, c), 11);
}

TEST(ImageTest, SetPixelWritesAllChannels) {
  ImageU8 img(2, 2, 3);
  img.SetPixel(1, 0, {10, 20, 30});
  EXPECT_EQ(img.at(1, 0, 0), 10);
  EXPECT_EQ(img.at(1, 0, 1), 20);
  EXPECT_EQ(img.at(1, 0, 2), 30);
}

TEST(ImageTest, EqualityDeepCompares) {
  ImageU8 a(2, 2, 1, 5);
  ImageU8 b(2, 2, 1, 5);
  EXPECT_EQ(a, b);
  b.at(0, 0) = 6;
  EXPECT_FALSE(a == b);
}

TEST(ImageTest, ConvertImageCasts) {
  ImageU8 img(2, 1, 1);
  img.at(0, 0) = 200;
  img.at(0, 1) = 3;
  ImageF f = ConvertImage<float>(img);
  EXPECT_FLOAT_EQ(f.at(0, 0), 200.0f);
  EXPECT_FLOAT_EQ(f.at(0, 1), 3.0f);
}

TEST(ImageTest, ToU8ClampedRoundsAndClamps) {
  ImageF f(3, 1, 1);
  f.at(0, 0) = -4.2f;
  f.at(0, 1) = 127.6f;
  f.at(0, 2) = 400.0f;
  ImageU8 u = ToU8Clamped(f);
  EXPECT_EQ(u.at(0, 0), 0);
  EXPECT_EQ(u.at(0, 1), 128);
  EXPECT_EQ(u.at(0, 2), 255);
}

TEST(ImageTest, CropExtractsSubimage) {
  ImageU8 img(4, 4, 1);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x)
      img.at(y, x) = static_cast<std::uint8_t>(y * 4 + x);
  ImageU8 sub = Crop(img, 1, 2, 2, 2);
  EXPECT_EQ(sub.width(), 2);
  EXPECT_EQ(sub.height(), 2);
  EXPECT_EQ(sub.at(0, 0), 9);
  EXPECT_EQ(sub.at(1, 1), 14);
}

TEST(ColorTest, RgbToGrayUsesBt601Weights) {
  ImageU8 rgb(1, 1, 3);
  rgb.SetPixel(0, 0, {255, 0, 0});
  EXPECT_EQ(RgbToGray(rgb).at(0, 0), 76);  // round(0.299*255)
  rgb.SetPixel(0, 0, {0, 255, 0});
  EXPECT_EQ(RgbToGray(rgb).at(0, 0), 150);
  rgb.SetPixel(0, 0, {0, 0, 255});
  EXPECT_EQ(RgbToGray(rgb).at(0, 0), 29);
  rgb.SetPixel(0, 0, {255, 255, 255});
  EXPECT_EQ(RgbToGray(rgb).at(0, 0), 255);
}

TEST(ColorTest, RgbToGrayMatchesDoubleFormulaOnEveryColour) {
  // The conversion is exact in integers; a sum ending in one half is
  // rounded as the double formula rounds it. Check all 2^24 colours.
  ImageU8 rgb(256, 256, 3);
  for (int r = 0; r < 256; ++r) {
    for (int g = 0; g < 256; ++g) {
      for (int b = 0; b < 256; ++b) {
        rgb.SetPixel(g, b,
                     {static_cast<std::uint8_t>(r),
                      static_cast<std::uint8_t>(g),
                      static_cast<std::uint8_t>(b)});
      }
    }
    const ImageU8 gray = RgbToGray(rgb);
    for (int g = 0; g < 256; ++g) {
      for (int b = 0; b < 256; ++b) {
        const double v = 0.299 * r + 0.587 * g + 0.114 * b;
        const auto want =
            static_cast<std::uint8_t>(std::lround(std::min(v, 255.0)));
        ASSERT_EQ(gray.at(g, b), want) << r << "," << g << "," << b;
        ASSERT_EQ(Bt601Gray(static_cast<std::uint8_t>(r),
                            static_cast<std::uint8_t>(g),
                            static_cast<std::uint8_t>(b)),
                  want);
      }
    }
  }
}

TEST(ColorTest, GrayToRgbReplicates) {
  ImageU8 gray(1, 1, 1);
  gray.at(0, 0) = 99;
  ImageU8 rgb = GrayToRgb(gray);
  EXPECT_EQ(rgb.channels(), 3);
  EXPECT_EQ(rgb.at(0, 0, 0), 99);
  EXPECT_EQ(rgb.at(0, 0, 2), 99);
}

TEST(ColorTest, LerpAndScale) {
  const Rgb black{0, 0, 0};
  const Rgb white{255, 255, 255};
  EXPECT_EQ(LerpRgb(black, white, 0.0), black);
  EXPECT_EQ(LerpRgb(black, white, 1.0), white);
  const Rgb mid = LerpRgb(black, white, 0.5);
  EXPECT_NEAR(mid.r, 128, 1);
  const Rgb scaled = ScaleRgb(Rgb{100, 200, 50}, 2.0);
  EXPECT_EQ(scaled.r, 200);
  EXPECT_EQ(scaled.g, 255);  // Clamped.
  EXPECT_EQ(scaled.b, 100);
}

}  // namespace
}  // namespace snor
