// Tests for scene composition, frame segmentation, the parallel-for
// utility, and the HSV colour path.

#include <atomic>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/segmentation.h"
#include "data/scene.h"
#include "img/color.h"
#include "util/parallel.h"

namespace snor {
namespace {

TEST(SceneTest, ComposeScenePlacesObjects) {
  ScenePlacement p;
  p.cls = ObjectClass::kChair;
  p.model_id = 4;
  p.x = 10;
  p.y = 10;
  p.render.canvas_size = 80;
  const Scene scene = ComposeScene({p}, 200, 120);
  EXPECT_EQ(scene.frame.width(), 200);
  EXPECT_EQ(scene.frame.height(), 120);
  // Some object pixels inside the placement, background outside.
  int inside = 0;
  for (int y = 10; y < 90; ++y)
    for (int x = 10; x < 90; ++x)
      if (scene.frame.at(y, x, 0) || scene.frame.at(y, x, 1) ||
          scene.frame.at(y, x, 2))
        ++inside;
  EXPECT_GT(inside, 100);
  EXPECT_EQ(scene.frame.at(5, 150, 0), 0);
}

TEST(SceneTest, TruthAtResolvesPlacements) {
  ScenePlacement a;
  a.cls = ObjectClass::kSofa;
  a.x = 0;
  a.y = 0;
  a.render.canvas_size = 50;
  ScenePlacement b;
  b.cls = ObjectClass::kLamp;
  b.x = 100;
  b.y = 0;
  b.render.canvas_size = 50;
  const Scene scene = ComposeScene({a, b}, 200, 60);
  EXPECT_EQ(scene.TruthAt({20, 20}), ObjectClass::kSofa);
  EXPECT_EQ(scene.TruthAt({120, 20}), ObjectClass::kLamp);
  EXPECT_TRUE(scene.Covers({20, 20}));
  EXPECT_FALSE(scene.Covers({80, 20}));
}

TEST(SceneTest, RandomSceneDeterministic) {
  SceneOptions opts;
  opts.seed = 5;
  const Scene a = RandomScene(opts);
  const Scene b = RandomScene(opts);
  EXPECT_EQ(a.frame, b.frame);
  EXPECT_EQ(a.objects.size(), b.objects.size());
}

TEST(SceneTest, RandomSceneHasRequestedObjectCount) {
  SceneOptions opts;
  opts.objects_per_frame = 4;
  opts.frame_width = 560;
  const Scene scene = RandomScene(opts);
  EXPECT_EQ(scene.objects.size(), 4u);
}

TEST(SegmentationTest, FindsComposedObjects) {
  SceneOptions opts;
  opts.seed = 9;
  const Scene scene = RandomScene(opts);
  const auto regions = SegmentFrame(scene.frame);
  EXPECT_GE(regions.size(), 2u);  // Occlusion may merge/split regions.
  for (const auto& region : regions) {
    EXPECT_GT(region.bbox.Area(), 0);
    EXPECT_FALSE(region.contour.empty());
    EXPECT_EQ(region.crop.width(), region.bbox.width);
    EXPECT_EQ(region.crop.height(), region.bbox.height);
  }
  // Regions sorted largest-first.
  for (std::size_t i = 1; i < regions.size(); ++i) {
    EXPECT_GE(ContourArea(regions[i - 1].contour),
              ContourArea(regions[i].contour));
  }
}

TEST(SegmentationTest, MaxObjectsCaps) {
  SceneOptions opts;
  opts.seed = 9;
  const Scene scene = RandomScene(opts);
  SegmentationOptions seg;
  seg.max_objects = 1;
  EXPECT_EQ(SegmentFrame(scene.frame, seg).size(), 1u);
}

TEST(SegmentationTest, EmptyFrameYieldsNothing) {
  ImageU8 frame(100, 60, 3, 0);
  EXPECT_TRUE(SegmentFrame(frame).empty());
}

TEST(ParallelForTest, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(500);
  for (auto& h : hits) h = 0;
  ParallelFor(500, [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ZeroAndSmallSizes) {
  ParallelFor(0, [](std::size_t) { FAIL(); }, 4);
  int count = 0;
  ParallelFor(5, [&](std::size_t) { ++count; }, 4);  // Runs inline.
  EXPECT_EQ(count, 5);
}

TEST(ParallelForTest, MatchesSequentialResult) {
  std::vector<double> seq(200);
  std::vector<double> par(200);
  auto work = [](std::size_t i) {
    return std::sqrt(static_cast<double>(i) * 3.7 + 1.0);
  };
  for (std::size_t i = 0; i < seq.size(); ++i) seq[i] = work(i);
  ParallelFor(par.size(), [&](std::size_t i) { par[i] = work(i); }, 3);
  EXPECT_EQ(seq, par);
}

TEST(HsvTest, KnownConversions) {
  ImageU8 rgb(4, 1, 3);
  rgb.SetPixel(0, 0, {255, 0, 0});    // Red: H=0, S=255, V=255.
  rgb.SetPixel(0, 1, {0, 255, 0});    // Green: H=1/3.
  rgb.SetPixel(0, 2, {255, 255, 255}); // White: S=0, V=255.
  rgb.SetPixel(0, 3, {0, 0, 0});      // Black: V=0.
  const ImageU8 hsv = RgbToHsv(rgb);
  EXPECT_EQ(hsv.at(0, 0, 0), 0);
  EXPECT_EQ(hsv.at(0, 0, 1), 255);
  EXPECT_EQ(hsv.at(0, 0, 2), 255);
  EXPECT_NEAR(hsv.at(0, 1, 0), 85, 1);  // 120/360*255.
  EXPECT_EQ(hsv.at(0, 2, 1), 0);
  EXPECT_EQ(hsv.at(0, 3, 2), 0);
}

TEST(HsvTest, HueInvariantToIllumination) {
  ImageU8 bright(1, 1, 3);
  bright.SetPixel(0, 0, {200, 100, 50});
  ImageU8 dark(1, 1, 3);
  dark.SetPixel(0, 0, {100, 50, 25});
  const ImageU8 h1 = RgbToHsv(bright);
  const ImageU8 h2 = RgbToHsv(dark);
  EXPECT_NEAR(h1.at(0, 0, 0), h2.at(0, 0, 0), 2);   // Hue preserved.
  EXPECT_NEAR(h1.at(0, 0, 1), h2.at(0, 0, 1), 3);   // Saturation too.
  EXPECT_GT(h1.at(0, 0, 2), h2.at(0, 0, 2));        // Value halves.
}

TEST(HsvTest, FeatureCacheHsvOption) {
  ExperimentConfig config;
  config.canvas_size = 48;
  config.nyu_fraction = 0.005;
  ExperimentContext context(config);
  FeatureOptions rgb_opts;
  FeatureOptions hsv_opts;
  hsv_opts.use_hsv = true;
  const auto rgb_features = ComputeFeatures(context.Sns1(), rgb_opts);
  const auto hsv_features = ComputeFeatures(context.Sns1(), hsv_opts);
  ASSERT_EQ(rgb_features.size(), hsv_features.size());
  // Histograms differ but both are valid and normalized.
  bool any_diff = false;
  for (std::size_t i = 0; i < rgb_features.size(); ++i) {
    EXPECT_TRUE(hsv_features[i].valid);
    EXPECT_NEAR(hsv_features[i].histogram.TotalMass(), 1.0, 1e-9);
    if (rgb_features[i].histogram.bins() !=
        hsv_features[i].histogram.bins()) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace snor
