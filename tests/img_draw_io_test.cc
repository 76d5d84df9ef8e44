#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "hostile_input.h"
#include "img/draw.h"
#include "img/io_ppm.h"
#include "img/pyramid.h"
#include "util/fault.h"

namespace snor {
namespace {

int CountColored(const ImageU8& img, const Rgb& c) {
  int count = 0;
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      if (img.at(y, x, 0) == c.r && img.at(y, x, 1) == c.g &&
          img.at(y, x, 2) == c.b)
        ++count;
  return count;
}

constexpr Rgb kRed{255, 0, 0};

TEST(DrawTest, FillRectCoversExpectedArea) {
  ImageU8 img(20, 20, 3);
  FillRect(img, 5, 5, 10, 8, kRed);
  const int n = CountColored(img, kRed);
  EXPECT_NEAR(n, 80, 25);  // Rasterization tolerance.
  EXPECT_EQ(img.at(0, 0, 0), 0);
}

TEST(DrawTest, FillRectClipsToImage) {
  ImageU8 img(10, 10, 3);
  FillRect(img, -5, -5, 30, 30, kRed);
  EXPECT_EQ(CountColored(img, kRed), 100);
}

TEST(DrawTest, FillCircleAreaApproximatesPiR2) {
  ImageU8 img(64, 64, 3);
  FillCircle(img, 32, 32, 10, kRed);
  const int n = CountColored(img, kRed);
  EXPECT_NEAR(n, 314, 40);
}

TEST(DrawTest, FillEllipseIsInsideBoundingBox) {
  ImageU8 img(40, 40, 3);
  FillEllipse(img, 20, 20, 15, 5, kRed);
  for (int y = 0; y < 40; ++y)
    for (int x = 0; x < 40; ++x)
      if (img.at(y, x, 0) == 255) {
        EXPECT_GE(x, 4);
        EXPECT_LE(x, 36);
        EXPECT_GE(y, 14);
        EXPECT_LE(y, 26);
      }
}

TEST(DrawTest, FillPolygonTriangle) {
  ImageU8 img(30, 30, 3);
  FillPolygon(img, {{5, 25}, {25, 25}, {15, 5}}, kRed);
  const int n = CountColored(img, kRed);
  EXPECT_NEAR(n, 200, 40);  // Triangle area = 0.5*20*20.
  EXPECT_EQ(img.at(6, 5, 0), 0);  // Outside the triangle.
}

TEST(DrawTest, FillRotatedRectKeepsArea) {
  ImageU8 img(60, 60, 3);
  FillRotatedRect(img, 30, 30, 20, 10, 0.7, kRed);
  EXPECT_NEAR(CountColored(img, kRed), 200, 50);
}

TEST(DrawTest, DrawLineConnectsEndpoints) {
  ImageU8 img(30, 30, 3);
  DrawLine(img, {2, 2}, {27, 27}, 3, kRed);
  EXPECT_GT(CountColored(img, kRed), 60);
  // Midpoint is covered.
  EXPECT_EQ(img.at(15, 15, 0), 255);
}

TEST(DrawTest, PolygonOutlineLeavesInteriorEmpty) {
  ImageU8 img(40, 40, 3);
  DrawPolygonOutline(img, {{5, 5}, {35, 5}, {35, 35}, {5, 35}}, 2, kRed);
  EXPECT_EQ(img.at(20, 20, 0), 0);
  EXPECT_GT(CountColored(img, kRed), 100);
}

TEST(DrawTest, RotatePointRoundTrip) {
  const Point2d p{10, 0};
  const Point2d c{0, 0};
  const Point2d q = RotatePoint(p, c, 3.14159265358979 / 2);
  EXPECT_NEAR(q.x, 0.0, 1e-6);
  EXPECT_NEAR(q.y, 10.0, 1e-6);
}

TEST(DrawTest, GrayImageDrawsLuma) {
  ImageU8 img(10, 10, 1);
  FillRect(img, 0, 0, 10, 10, Rgb{255, 255, 255});
  EXPECT_EQ(img.at(5, 5), 255);
}

TEST(PnmIoTest, RgbRoundTrip) {
  ImageU8 img(7, 4, 3);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 7; ++x)
      img.SetPixel(y, x,
                   {static_cast<std::uint8_t>(x * 30),
                    static_cast<std::uint8_t>(y * 60),
                    static_cast<std::uint8_t>((x + y) * 10)});
  const std::string path = testing::TempDir() + "/snor_io_test.ppm";
  ASSERT_TRUE(WritePnm(img, path).ok());
  auto result = ReadPnm(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value(), img);
}

TEST(PnmIoTest, GrayRoundTrip) {
  ImageU8 img(5, 5, 1);
  for (int y = 0; y < 5; ++y)
    for (int x = 0; x < 5; ++x)
      img.at(y, x) = static_cast<std::uint8_t>(x * y * 10);
  const std::string path = testing::TempDir() + "/snor_io_test.pgm";
  ASSERT_TRUE(WritePnm(img, path).ok());
  auto result = ReadPnm(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), img);
}

TEST(PnmIoTest, MissingFileIsIoError) {
  auto result = ReadPnm("/nonexistent/definitely/missing.ppm");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(PnmIoTest, RejectsBadMagic) {
  const std::string path = testing::TempDir() + "/snor_bad_magic.ppm";
  {
    std::ofstream f(path);
    f << "P3\n1 1\n255\n0 0 0\n";
  }
  auto result = ReadPnm(path);
  ASSERT_FALSE(result.ok());
}

TEST(PnmIoTest, HandlesHeaderComments) {
  const std::string path = testing::TempDir() + "/snor_comment.pgm";
  {
    std::ofstream f(path, std::ios::binary);
    f << "P5\n# a comment line\n2 1\n255\n";
    f.put(static_cast<char>(9));
    f.put(static_cast<char>(200));
  }
  auto result = ReadPnm(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().at(0, 0), 9);
  EXPECT_EQ(result.value().at(0, 1), 200);
}

TEST(PnmIoTest, HandlesCommentsBetweenEveryHeaderToken) {
  // GIMP and friends scatter comments anywhere in the header, including
  // between width and height.
  const std::string path = testing::TempDir() + "/snor_comment_multi.pgm";
  {
    std::ofstream f(path, std::ios::binary);
    f << "P5 # magic\n# created by a robot\n2 # width\n1\n# almost there\n"
         "255\n";
    f.put(static_cast<char>(40));
    f.put(static_cast<char>(41));
  }
  auto result = ReadPnm(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().at(0, 0), 40);
  EXPECT_EQ(result.value().at(0, 1), 41);
}

TEST(PnmIoTest, CommentGluedToMaxvalDoesNotLeakIntoRaster) {
  // Regression: a `#` directly after the maxval ("255#made by x") used to
  // be pushed back, so the comment bytes were read as raster payload.
  // The comment must be consumed through its newline, which then serves
  // as the single delimiter before the raster.
  const std::string path = testing::TempDir() + "/snor_comment_maxval.pgm";
  {
    std::ofstream f(path, std::ios::binary);
    f << "P5\n2 2\n255# made by snor\n";
    for (char v : {'\x01', '\x02', '\x03', '\x04'}) f.put(v);
  }
  auto result = ReadPnm(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().at(0, 0), 1);
  EXPECT_EQ(result.value().at(1, 1), 4);
}

TEST(PnmIoTest, CommentedHeaderStillHitsTruncationFault) {
  // The comment fix must not bypass the deterministic truncated-file
  // fault hook: a commented header followed by a complete payload still
  // fails when the fault point is armed at rate 1.
  const std::string path = testing::TempDir() + "/snor_comment_fault.pgm";
  {
    std::ofstream f(path, std::ios::binary);
    f << "P5\n# commented header\n2 1\n255\n";
    f.put(static_cast<char>(7));
    f.put(static_cast<char>(8));
  }
  ASSERT_TRUE(ReadPnm(path).ok());
  ScopedFault truncated(FaultPoint::kTruncatedFile, 1.0, 99);
  auto result = ReadPnm(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(PnmIoTest, TruncatedPayloadIsError) {
  const std::string path = testing::TempDir() + "/snor_trunc.pgm";
  {
    std::ofstream f(path, std::ios::binary);
    f << "P5\n4 4\n255\n";
    f.put(static_cast<char>(1));  // Only 1 of 16 bytes.
  }
  auto result = ReadPnm(path);
  ASSERT_FALSE(result.ok());
}

TEST(PnmIoTest, OverflowingHeaderIntegerIsIoError) {
  // 4294967297 = 2^32 + 1 would narrow to a width of 1 and load.
  const std::string path = testing::TempDir() + "/snor_overflow.pgm";
  hostile::WriteFile(path, std::string("P5\n4294967297 1\n255\n") + '\x07');
  auto result = ReadPnm(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

[[noreturn]] void ReadPnmAndExit(const std::string& path) {
  if (!hostile::CapAddressSpace()) std::_Exit(2);
  const auto result = ReadPnm(path);
  const Status& status = result.status();
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::_Exit(status.code() == StatusCode::kIoError &&
                     status.message().find("truncated") != std::string::npos
                 ? 0
                 : 1);
}

TEST(PnmIoTest, HostileDimensionsAreRejectedBeforeAllocating) {
  if (SNOR_HOSTILE_INPUT_UNSUPPORTED) {
    GTEST_SKIP() << "address-space cap is unavailable under sanitizers";
  }
  const struct {
    const char* name;
    const char* header;
  } cases[] = {
      {"30 GB RGB raster in a 20-byte file", "P6\n100000 100000\n255\n"},
      {"INT_MAX x INT_MAX gray raster",
       "P5\n2147483647 2147483647\n255\n"},
  };
  const std::string path = testing::TempDir() + "/snor_hostile.pnm";
  for (const auto& c : cases) {
    hostile::WriteFile(path, c.header);
    EXPECT_EXIT(ReadPnmAndExit(path), ::testing::ExitedWithCode(0), "")
        << c.name;
  }
}

TEST(PyramidTest, LevelsShrinkByFactor) {
  ImageU8 img(128, 128, 1, 100);
  const auto levels = BuildPyramid(img, 4, 2.0);
  ASSERT_EQ(levels.size(), 4u);
  EXPECT_EQ(levels[0].image.width(), 128);
  EXPECT_EQ(levels[1].image.width(), 64);
  EXPECT_EQ(levels[2].image.width(), 32);
  EXPECT_EQ(levels[3].image.width(), 16);
  EXPECT_DOUBLE_EQ(levels[2].scale, 4.0);
}

TEST(PyramidTest, StopsAtMinSize) {
  ImageU8 img(64, 64, 1);
  const auto levels = BuildPyramid(img, 10, 2.0, 16);
  EXPECT_EQ(levels.size(), 3u);  // 64, 32, 16; next would be 8 < 16.
}

}  // namespace
}  // namespace snor
