#include "core/preprocess.h"

#include <gtest/gtest.h>

#include "data/renderer.h"
#include "img/color.h"
#include "img/draw.h"

namespace snor {
namespace {

TEST(PreprocessTest, CropsToObjectOnWhite) {
  ImageU8 img(80, 80, 3);
  FillRect(img, 0, 0, 80, 80, Rgb{255, 255, 255});
  FillRect(img, 20, 30, 30, 20, Rgb{100, 40, 40});
  auto result = Preprocess(img, PreprocessOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cropped_rgb.width(), 30);
  EXPECT_EQ(result->cropped_rgb.height(), 20);
  // Crop content is the object colour.
  EXPECT_EQ(result->cropped_rgb.at(10, 15, 0), 100);
}

TEST(PreprocessTest, CropsToObjectOnBlack) {
  ImageU8 img(80, 80, 3, 0);
  FillRect(img, 10, 12, 24, 40, Rgb{90, 120, 160});
  PreprocessOptions opts;
  opts.white_background = false;
  auto result = Preprocess(img, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cropped_rgb.width(), 24);
  EXPECT_EQ(result->cropped_rgb.height(), 40);
}

TEST(PreprocessTest, PicksLargestComponent) {
  ImageU8 img(100, 100, 3);
  FillRect(img, 0, 0, 100, 100, Rgb{255, 255, 255});
  FillRect(img, 5, 5, 8, 8, Rgb{0, 0, 0});        // Small blob.
  FillRect(img, 40, 40, 40, 30, Rgb{50, 60, 70}); // Dominant object.
  auto result = Preprocess(img, PreprocessOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cropped_rgb.width(), 40);
  EXPECT_EQ(result->cropped_rgb.height(), 30);
}

TEST(PreprocessTest, FailsOnBlankImage) {
  ImageU8 white(40, 40, 3);
  FillRect(white, 0, 0, 40, 40, Rgb{255, 255, 255});
  auto result = Preprocess(white, PreprocessOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);

  ImageU8 black(40, 40, 3, 0);
  PreprocessOptions opts;
  opts.white_background = false;
  EXPECT_FALSE(Preprocess(black, opts).ok());
}

TEST(PreprocessTest, FailsOnEmptyImage) {
  ImageU8 empty;
  EXPECT_EQ(Preprocess(empty, PreprocessOptions{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PreprocessTest, HuMomentsPopulated) {
  ImageU8 img(80, 80, 3);
  FillRect(img, 0, 0, 80, 80, Rgb{255, 255, 255});
  FillEllipse(img, 40, 40, 25, 12, Rgb{30, 30, 200});
  auto result = Preprocess(img, PreprocessOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->hu[0], 0.0);
  EXPECT_FALSE(result->contour.empty());
}

TEST(PreprocessTest, MinComponentFilterIgnoresSpeckles) {
  ImageU8 img(60, 60, 3);
  FillRect(img, 0, 0, 60, 60, Rgb{255, 255, 255});
  img.SetPixel(3, 3, {0, 0, 0});  // 1-px speckle.
  FillRect(img, 20, 20, 20, 20, Rgb{80, 80, 80});
  PreprocessOptions opts;
  opts.min_component_pixels = 9;
  auto result = Preprocess(img, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cropped_rgb.width(), 20);
}

TEST(PreprocessTest, EqualLargestComponentsPickFirstInRasterOrder) {
  // Two 12x12 objects of equal contour area; the one whose first pixel
  // comes first in raster order (the upper one) wins, whatever its x.
  ImageU8 img(60, 60, 3);
  FillRect(img, 0, 0, 60, 60, Rgb{255, 255, 255});
  FillRect(img, 40, 5, 12, 12, Rgb{200, 20, 20});
  FillRect(img, 4, 30, 12, 12, Rgb{20, 20, 200});
  auto result = Preprocess(img, PreprocessOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->contour[0], (Point{40, 5}));
  EXPECT_EQ(result->cropped_rgb.at(0, 0, 0), 200);
}

TEST(PreprocessTest, CornerWhiskerDoesNotInflateArea) {
  // The 10x10 object's trace starts on a pixel touching its corner
  // diagonally. Traced once round, it encloses less than the plain 14x14
  // object, which must win.
  ImageU8 img(60, 60, 3);
  FillRect(img, 0, 0, 60, 60, Rgb{255, 255, 255});
  FillRect(img, 6, 6, 10, 10, Rgb{200, 20, 20});
  FillRect(img, 5, 5, 1, 1, Rgb{200, 20, 20});
  FillRect(img, 30, 30, 14, 14, Rgb{20, 20, 200});
  auto result = Preprocess(img, PreprocessOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cropped_rgb.width(), 14);
  EXPECT_EQ(result->cropped_rgb.at(0, 0, 2), 200);
}

TEST(PreprocessTest, SingleChannelInputMatchesItsRgbExpansion) {
  ImageU8 gray(50, 40, 1, 255);
  FillRect(gray, 10, 8, 20, 15, Rgb{90, 90, 90});
  FillEllipse(gray, 38, 30, 6, 4, Rgb{30, 30, 30});
  const ImageU8 rgb = GrayToRgb(gray);
  for (const bool otsu : {false, true}) {
    PreprocessOptions opts;
    opts.use_otsu = otsu;
    auto from_gray = Preprocess(gray, opts);
    auto from_rgb = Preprocess(rgb, opts);
    ASSERT_TRUE(from_gray.ok());
    ASSERT_TRUE(from_rgb.ok());
    EXPECT_EQ(from_gray->contour, from_rgb->contour) << "otsu " << otsu;
    EXPECT_EQ(from_gray->cropped_rgb.channels(), 1);
    EXPECT_EQ(from_gray->cropped_rgb.width(),
              from_rgb->cropped_rgb.width());
  }
}

TEST(PreprocessTest, WorksOnRenderedViews) {
  for (ObjectClass cls : AllClasses()) {
    RenderOptions ro;
    const ImageU8 view = RenderObjectView(cls, 0, ro);
    auto result = Preprocess(view, PreprocessOptions{});
    ASSERT_TRUE(result.ok()) << ObjectClassName(cls);
    EXPECT_GT(result->cropped_rgb.width(), 8) << ObjectClassName(cls);
    EXPECT_GT(result->cropped_rgb.height(), 8) << ObjectClassName(cls);
  }
}

TEST(PreprocessTest, WorksOnNyuStyleRenders) {
  for (ObjectClass cls : AllClasses()) {
    RenderOptions ro;
    ro.white_background = false;
    ro.noise_stddev = 10.0;
    ro.illumination = 0.7;
    ro.nuisance_seed = 11;
    const ImageU8 view = RenderObjectView(cls, 5, ro);
    PreprocessOptions opts;
    opts.white_background = false;
    auto result = Preprocess(view, opts);
    ASSERT_TRUE(result.ok()) << ObjectClassName(cls);
  }
}

}  // namespace
}  // namespace snor
