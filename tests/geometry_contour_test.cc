#include "geometry/contour.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "contour_reference.h"
#include "img/draw.h"
#include "util/rng.h"

namespace snor {
namespace {

ImageU8 BinaryCanvas(int w, int h) { return ImageU8(w, h, 1, 0); }

void StampRect(ImageU8& img, int x, int y, int w, int h) {
  for (int yy = y; yy < y + h; ++yy)
    for (int xx = x; xx < x + w; ++xx) img.at(yy, xx) = 255;
}

TEST(LabelComponentsTest, CountsDisjointBlobs) {
  ImageU8 img = BinaryCanvas(20, 20);
  StampRect(img, 1, 1, 3, 3);
  StampRect(img, 10, 10, 4, 4);
  int n = 0;
  const Image<int> labels = reference::LabelComponents(img, &n);
  EXPECT_EQ(n, 2);
  EXPECT_NE(labels.at(2, 2), labels.at(12, 12));
  EXPECT_EQ(labels.at(0, 0), 0);
}

TEST(LabelComponentsTest, DiagonalTouchIsOneComponent) {
  ImageU8 img = BinaryCanvas(4, 4);
  img.at(0, 0) = 255;
  img.at(1, 1) = 255;
  int n = 0;
  reference::LabelComponents(img, &n);
  EXPECT_EQ(n, 1);
}

TEST(LabelComponentsTest, EmptyImageHasNoComponents) {
  ImageU8 img = BinaryCanvas(5, 5);
  int n = -1;
  reference::LabelComponents(img, &n);
  EXPECT_EQ(n, 0);
}

TEST(FindContoursTest, SingleRectangleContour) {
  ImageU8 img = BinaryCanvas(20, 20);
  StampRect(img, 4, 5, 8, 6);
  const auto contours = FindContours(img);
  ASSERT_EQ(contours.size(), 1u);
  const Rect bb = BoundingRect(contours[0]);
  EXPECT_EQ(bb, (Rect{4, 5, 8, 6}));
  // Boundary area: the traced border encloses (w-1)*(h-1) pixel centres.
  EXPECT_NEAR(ContourArea(contours[0]), 7.0 * 5.0, 1e-9);
}

TEST(FindContoursTest, SortsByAreaDescending) {
  ImageU8 img = BinaryCanvas(40, 40);
  StampRect(img, 1, 1, 4, 4);
  StampRect(img, 10, 10, 20, 20);
  StampRect(img, 34, 34, 2, 2);
  const auto contours = FindContours(img);
  ASSERT_EQ(contours.size(), 3u);
  EXPECT_GT(ContourArea(contours[0]), ContourArea(contours[1]));
  EXPECT_GT(ContourArea(contours[1]), ContourArea(contours[2]));
  EXPECT_EQ(BoundingRect(contours[0]).width, 20);
}

TEST(FindContoursTest, MinPixelsFilters) {
  ImageU8 img = BinaryCanvas(20, 20);
  StampRect(img, 1, 1, 2, 2);   // 4 px
  StampRect(img, 10, 10, 5, 5); // 25 px
  EXPECT_EQ(FindContours(img, 5).size(), 1u);
  EXPECT_EQ(FindContours(img, 1).size(), 2u);
}

TEST(FindContoursTest, IsolatedPixel) {
  ImageU8 img = BinaryCanvas(5, 5);
  img.at(2, 2) = 255;
  const auto contours = FindContours(img);
  ASSERT_EQ(contours.size(), 1u);
  EXPECT_EQ(contours[0].size(), 1u);
  EXPECT_EQ(contours[0][0], (Point{2, 2}));
  EXPECT_DOUBLE_EQ(ContourArea(contours[0]), 0.0);
}

TEST(FindContoursTest, ContourIsClosedChain) {
  ImageU8 img = BinaryCanvas(30, 30);
  FillCircle(img, 15, 15, 8, Rgb{255, 255, 255});
  const auto contours = FindContours(img);
  ASSERT_EQ(contours.size(), 1u);
  const Contour& c = contours[0];
  ASSERT_GT(c.size(), 8u);
  // Consecutive points (and the wrap-around pair) are king-adjacent.
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Point& a = c[i];
    const Point& b = c[(i + 1) % c.size()];
    EXPECT_LE(std::abs(a.x - b.x), 1);
    EXPECT_LE(std::abs(a.y - b.y), 1);
    EXPECT_FALSE(a == b);
  }
}

TEST(FindContoursTest, CircleAreaApproximation) {
  ImageU8 img = BinaryCanvas(64, 64);
  FillCircle(img, 32, 32, 12, Rgb{255, 255, 255});
  const auto contours = FindContours(img);
  ASSERT_EQ(contours.size(), 1u);
  EXPECT_NEAR(ContourArea(contours[0]), 3.14159 * 12 * 12, 50);
}

TEST(FindContoursTest, TouchesImageBorder) {
  ImageU8 img = BinaryCanvas(10, 10);
  StampRect(img, 0, 0, 10, 10);
  const auto contours = FindContours(img);
  ASSERT_EQ(contours.size(), 1u);
  EXPECT_EQ(BoundingRect(contours[0]), (Rect{0, 0, 10, 10}));
}

TEST(FindContoursTest, ConcaveShapeTracedCorrectly) {
  // L-shape: bounding box is 10x10 but area is smaller.
  ImageU8 img = BinaryCanvas(20, 20);
  StampRect(img, 2, 2, 10, 4);
  StampRect(img, 2, 2, 4, 10);
  const auto contours = FindContours(img);
  ASSERT_EQ(contours.size(), 1u);
  const double area = ContourArea(contours[0]);
  EXPECT_LT(area, 9.0 * 9.0);
  EXPECT_GT(area, 40.0);
}

// Regressions for the stopping rule: a start pixel whose component
// continues only to the south-east is re-entered from the south, never
// from the west, and a trace that waited for the west looped to its cap.
TEST(FindContoursTest, ThreePixelElbowTraceCloses) {
  ImageU8 img = BinaryCanvas(4, 4);  // ##
  img.at(0, 0) = 255;                // .#
  img.at(0, 1) = 255;
  img.at(1, 1) = 255;
  const auto contours = FindContours(img);
  ASSERT_EQ(contours.size(), 1u);
  EXPECT_EQ(contours[0], (Contour{{0, 0}, {1, 0}, {1, 1}}));
  EXPECT_DOUBLE_EQ(ContourArea(contours[0]), 0.5);
}

TEST(FindContoursTest, DiagonalPairTracesClose) {
  ImageU8 down = BinaryCanvas(4, 4);  // #.
  down.at(0, 0) = 255;                // .#
  down.at(1, 1) = 255;
  EXPECT_EQ(FindContours(down), (std::vector<Contour>{{{0, 0}, {1, 1}}}));

  ImageU8 up = BinaryCanvas(4, 4);  // .#
  up.at(0, 1) = 255;                // #.
  up.at(1, 0) = 255;
  EXPECT_EQ(FindContours(up), (std::vector<Contour>{{{1, 0}, {0, 1}}}));
}

TEST(FindContoursTest, CornerWhiskerDoesNotWindTheSquare) {
  // A 10x10 square with one pixel touching its top-left corner
  // diagonally: the trace starts on the whisker and goes round once.
  ImageU8 img = BinaryCanvas(30, 30);
  StampRect(img, 5, 5, 10, 10);
  img.at(4, 4) = 255;
  const auto contours = FindContours(img);
  ASSERT_EQ(contours.size(), 1u);
  EXPECT_EQ(contours[0].size(), 38u);  // 36 border pixels, whisker twice.
  EXPECT_DOUBLE_EQ(ContourArea(contours[0]), 81.0);
}

TEST(FindContoursTest, EqualAreasKeepRasterOrder) {
  // Three 4x4 squares of equal area; their first pixels in raster order
  // are (12,1), (1,5), (7,9), which is not their left-to-right order.
  ImageU8 img = BinaryCanvas(20, 16);
  StampRect(img, 7, 9, 4, 4);
  StampRect(img, 12, 1, 4, 4);
  StampRect(img, 1, 5, 4, 4);
  const auto contours = FindContours(img);
  ASSERT_EQ(contours.size(), 3u);
  EXPECT_EQ(contours[0][0], (Point{12, 1}));
  EXPECT_EQ(contours[1][0], (Point{1, 5}));
  EXPECT_EQ(contours[2][0], (Point{7, 9}));
}

TEST(FindContoursTest, EqualAreasKeepRasterOrderPastSmallSorts) {
  // More ties than an insertion-sorted small range: the order is still
  // the raster order of the start pixels, behind the one larger square.
  ImageU8 img = BinaryCanvas(64, 64);
  std::vector<Point> starts;
  for (int i = 0; i < 24; ++i) {
    const Point p{2 + 9 * (5 - i % 6), 2 + 7 * (i / 6)};
    StampRect(img, p.x, p.y, 3, 3);
    starts.push_back(p);
  }
  StampRect(img, 2, 40, 10, 10);
  std::sort(starts.begin(), starts.end(), [](Point a, Point b) {
    return a.y != b.y ? a.y < b.y : a.x < b.x;
  });
  const auto contours = FindContours(img);
  ASSERT_EQ(contours.size(), 25u);
  EXPECT_EQ(contours[0][0], (Point{2, 40}));
  for (std::size_t i = 0; i < starts.size(); ++i) {
    EXPECT_EQ(contours[i + 1][0], starts[i]) << "tie " << i;
  }
}

// Seeded masks mixing the shapes a labeller or tracer gets wrong: filled
// and hollow rectangles (holes, rings), one-pixel strokes, diagonal
// touches, components cut by the image border, 1xN and Nx1 images and
// salt noise. Foreground bytes are arbitrary non-zero values.
ImageU8 FuzzMask(Rng& rng) {
  int w = static_cast<int>(rng.UniformInt(1, 28));
  int h = static_cast<int>(rng.UniformInt(1, 28));
  if (rng.UniformInt(0, 7) == 0) w = 1;
  if (rng.UniformInt(0, 7) == 0) h = 1;
  ImageU8 img = BinaryCanvas(w, h);
  auto set = [&](int x, int y) {
    if (img.InBounds(x, y)) {
      img.at(y, x) = static_cast<std::uint8_t>(rng.UniformInt(1, 255));
    }
  };
  const int shapes = static_cast<int>(rng.UniformInt(0, 6));
  for (int s = 0; s < shapes; ++s) {
    // Shapes may start left of or above the image and run past its far
    // edges, so components are cut by every side of the border.
    const int x0 = static_cast<int>(rng.UniformInt(-3, w));
    const int y0 = static_cast<int>(rng.UniformInt(-3, h));
    const int sw = static_cast<int>(rng.UniformInt(1, 12));
    const int sh = static_cast<int>(rng.UniformInt(1, 12));
    switch (rng.UniformInt(0, 4)) {
      case 0:  // Filled rectangle.
        for (int y = y0; y < y0 + sh; ++y)
          for (int x = x0; x < x0 + sw; ++x) set(x, y);
        break;
      case 1: {  // Ring: rectangle outline, one or two pixels thick.
        const int t = static_cast<int>(rng.UniformInt(1, 2));
        for (int y = y0; y < y0 + sh; ++y)
          for (int x = x0; x < x0 + sw; ++x)
            if (x < x0 + t || x >= x0 + sw - t || y < y0 + t ||
                y >= y0 + sh - t)
              set(x, y);
        break;
      }
      case 2: {  // One-pixel stroke: horizontal, vertical or diagonal.
        const int dir = static_cast<int>(rng.UniformInt(0, 3));
        const int len = static_cast<int>(rng.UniformInt(1, 16));
        for (int i = 0; i < len; ++i) {
          const int dx = dir == 1 ? 0 : 1;
          const int dy = dir == 0 ? 0 : (dir == 3 ? -1 : 1);
          set(x0 + i * dx, y0 + i * dy);
        }
        break;
      }
      case 3:  // Diagonal touch of two pixels, either orientation.
        if (rng.UniformInt(0, 1) == 0) {
          set(x0, y0);
          set(x0 + 1, y0 + 1);
        } else {
          set(x0 + 1, y0);
          set(x0, y0 + 1);
        }
        break;
      default:  // Single pixel.
        set(x0, y0);
        break;
    }
  }
  if (rng.UniformInt(0, 2) == 0) {
    const double density = rng.Uniform(0.05, 0.6);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        if (rng.UniformDouble() < density) set(x, y);
  }
  return img;
}

TEST(FindContoursTest, MatchesReferenceOnFuzzedMasks) {
  Rng rng(20260423);
  for (int c = 0; c < 3000; ++c) {
    const ImageU8 mask = FuzzMask(rng);
    for (const int k : {1, 9}) {
      SCOPED_TRACE("case " + std::to_string(c) + " min_pixels " +
                   std::to_string(k));
      ASSERT_EQ(FindContours(mask, k), reference::FindContours(mask, k));
    }
  }
}

TEST(ContourGeometryTest, PerimeterOfSquare) {
  Contour square = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  EXPECT_DOUBLE_EQ(ContourPerimeter(square), 16.0);
  EXPECT_DOUBLE_EQ(ContourArea(square), 16.0);
}

TEST(ContourGeometryTest, EmptyAndDegenerate) {
  EXPECT_DOUBLE_EQ(ContourArea({}), 0.0);
  EXPECT_DOUBLE_EQ(ContourArea({{1, 1}}), 0.0);
  EXPECT_DOUBLE_EQ(ContourArea({{1, 1}, {5, 5}}), 0.0);
  EXPECT_DOUBLE_EQ(ContourPerimeter({}), 0.0);
  EXPECT_EQ(BoundingRect({}), (Rect{}));
}

TEST(ContourGeometryTest, AreaIsOrientationInvariant) {
  Contour cw = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  Contour ccw(cw.rbegin(), cw.rend());
  EXPECT_DOUBLE_EQ(ContourArea(cw), ContourArea(ccw));
}

TEST(BoundingRectTest, ContainsSemantics) {
  const Rect r{2, 3, 4, 5};
  EXPECT_TRUE(r.Contains({2, 3}));
  EXPECT_TRUE(r.Contains({5, 7}));
  EXPECT_FALSE(r.Contains({6, 3}));
  EXPECT_FALSE(r.Contains({2, 8}));
  EXPECT_EQ(r.Area(), 20);
}

}  // namespace
}  // namespace snor
