// Edge-case sweep across modules: inputs at the boundaries of each
// component's contract.

#include <cmath>

#include <gtest/gtest.h>

#include "contour_reference.h"
#include "core/classifiers.h"
#include "core/descriptor_classifier.h"
#include "core/evaluation.h"
#include "data/pairs.h"
#include "features/histogram.h"
#include "geometry/contour.h"
#include "geometry/moments.h"
#include "img/draw.h"
#include "img/resize.h"
#include "img/transform.h"
#include "nn/loss.h"

namespace snor {
namespace {

TEST(EdgeImageTest, OnePixelImageOperations) {
  ImageU8 img(1, 1, 3, 100);
  EXPECT_EQ(Resize(img, 3, 3).width(), 3);
  EXPECT_EQ(FlipHorizontal(img), img);
  EXPECT_EQ(Rotate90(img, 1), img);
  const ImageU8 gray = RgbToGray(img);
  EXPECT_EQ(gray.at(0, 0), 100);
}

TEST(EdgeImageTest, ExtremeAspectResize) {
  ImageU8 img(100, 2, 1, 50);
  const ImageU8 tall = Resize(img, 2, 100);
  EXPECT_EQ(tall.width(), 2);
  EXPECT_EQ(tall.height(), 100);
  EXPECT_EQ(tall.at(50, 1), 50);
}

TEST(EdgeImageTest, RotateByTinyAngle) {
  ImageU8 img(20, 20, 1, 200);
  const ImageU8 out = Rotate(img, 0.01);
  EXPECT_EQ(out.at(10, 10), 200);
}

TEST(EdgeDrawTest, DegenerateShapesAreSafe) {
  ImageU8 img(20, 20, 3, 0);
  FillPolygon(img, {}, Rgb{255, 0, 0});                  // Empty.
  FillPolygon(img, {{5, 5}, {6, 6}}, Rgb{255, 0, 0});    // Two points.
  FillCircle(img, 10, 10, 0.0, Rgb{255, 0, 0});          // Zero radius.
  FillRect(img, 5, 5, 0, 10, Rgb{255, 0, 0});            // Zero width.
  DrawLine(img, {3, 3}, {3, 3}, 2, Rgb{0, 255, 0});      // Point line.
  // Nothing crashed; the point "line" drew its cap.
  EXPECT_GT(img.at(3, 3, 1), 0);
}

TEST(EdgeContourTest, FullFrameForeground) {
  ImageU8 img(6, 6, 1, 255);
  const auto contours = FindContours(img);
  ASSERT_EQ(contours.size(), 1u);
  EXPECT_EQ(BoundingRect(contours[0]), (Rect{0, 0, 6, 6}));
}

TEST(EdgeContourTest, SinglePixelLine) {
  ImageU8 img(10, 3, 1, 0);
  for (int x = 2; x < 8; ++x) img.at(1, x) = 255;
  const auto contours = FindContours(img);
  ASSERT_EQ(contours.size(), 1u);
  EXPECT_EQ(BoundingRect(contours[0]).height, 1);
  EXPECT_DOUBLE_EQ(ContourArea(contours[0]), 0.0);  // Degenerate area.
}

TEST(EdgeContourTest, CheckerboardManyComponents) {
  ImageU8 img(8, 8, 1, 0);
  // 8-connectivity joins diagonal neighbours: a checkerboard of set
  // pixels is a single component.
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x)
      if ((x + y) % 2 == 0) img.at(y, x) = 255;
  int n = 0;
  reference::LabelComponents(img, &n);
  EXPECT_EQ(n, 1);
}

TEST(EdgeMomentsTest, CollinearContourIsDegenerate) {
  Contour line = {{0, 0}, {5, 0}, {10, 0}};
  const Moments m = ContourMoments(line);
  EXPECT_DOUBLE_EQ(m.m00, 0.0);
  const HuMoments hu = ComputeHuMoments(m);
  // Degenerate vs real shape -> maximal distance, not NaN.
  Contour square = {{0, 0}, {10, 0}, {10, 10}, {0, 10}};
  const HuMoments hs = ComputeHuMoments(ContourMoments(square));
  const double d = MatchShapes(hu, hs, ShapeMatchMethod::kI1);
  EXPECT_FALSE(std::isnan(d));
  EXPECT_GT(d, 1e100);
}

TEST(EdgeHistogramTest, SingleBinHistogram) {
  ImageU8 img(4, 4, 3, 77);
  ColorHistogram h = ColorHistogram::Compute(img, nullptr, 1);
  EXPECT_EQ(h.num_bins(), 1u);
  EXPECT_DOUBLE_EQ(h.At(0, 0, 0), 16.0);
  h.NormalizeL1();
  EXPECT_DOUBLE_EQ(
      CompareHistograms(h, h, HistCompareMethod::kIntersection), 1.0);
}

TEST(EdgeHistogramTest, FullyMaskedImageYieldsEmptyHistogram) {
  ImageU8 img(4, 4, 3, 100);
  ImageU8 mask(4, 4, 1, 0);
  ColorHistogram h = ColorHistogram::Compute(img, &mask);
  EXPECT_DOUBLE_EQ(h.TotalMass(), 0.0);
  // An empty histogram carries no colour evidence, so even against itself
  // Hellinger reports the worst-case distance instead of a perfect match.
  EXPECT_DOUBLE_EQ(
      CompareHistograms(h, h, HistCompareMethod::kHellinger), 1.0);
}

TEST(EdgeEvalTest, SingleSampleReport) {
  const EvalReport report =
      Evaluate({ObjectClass::kLamp}, {ObjectClass::kLamp});
  EXPECT_DOUBLE_EQ(report.cumulative_accuracy, 1.0);
  EXPECT_EQ(report.per_class[9].support, 1);
  EXPECT_DOUBLE_EQ(report.per_class[9].precision_paper, 1.0);
}

TEST(EdgeEvalTest, BinaryAllOneClass) {
  const BinaryReport report =
      EvaluateBinary({1, 1, 1}, {1, 1, 1});
  EXPECT_EQ(report.dissimilar.support, 0);
  EXPECT_DOUBLE_EQ(report.dissimilar.recall, 0.0);  // Defined as 0.
  EXPECT_DOUBLE_EQ(report.accuracy, 1.0);
}

TEST(EdgeSoftmaxTest, SingleClassLogits) {
  Tensor logits({2, 1});
  const Tensor p = Softmax(logits);
  EXPECT_FLOAT_EQ(p.At2(0, 0), 1.0f);
  SoftmaxCrossEntropy ce;
  EXPECT_NEAR(ce.Forward(logits, {0, 0}), 0.0, 1e-9);
}

TEST(EdgePairsTest, SmallDatasetPairGeneration) {
  DatasetOptions opts;
  opts.canvas_size = 32;
  opts.sample_fraction = 0.02;  // SNS1 at 2%: 1 view per class.
  Dataset tiny = MakeShapeNetSet1(opts);
  // All-unordered pairs on a minimal dataset still label correctly.
  const auto pairs = MakeAllUnorderedPairs(tiny);
  EXPECT_EQ(pairs.size(), tiny.size() * (tiny.size() - 1) / 2);
  for (const auto& p : pairs) {
    EXPECT_LT(p.index_a, p.index_b);
  }
}

TEST(EdgeClassifierTest, SingleViewGallery) {
  // A gallery with exactly one view classifies everything as that view's
  // class.
  DatasetOptions opts;
  opts.canvas_size = 48;
  const Dataset sns1 = MakeShapeNetSet1(opts);
  FeatureOptions fo;
  auto features = ComputeFeatures(sns1, fo);
  std::vector<ImageFeatures> single = {features[0]};
  ShapeOnlyClassifier classifier(single, ShapeMatchMethod::kI2);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(classifier.Classify(features[static_cast<std::size_t>(i)]),
              features[0].label);
  }
}

TEST(EdgeDescriptorTest, BlankInputFallsBack) {
  DatasetOptions opts;
  opts.canvas_size = 64;
  const Dataset sns1 = MakeShapeNetSet1(opts);
  DescriptorClassifierOptions dopts;
  dopts.type = DescriptorType::kOrb;
  DescriptorClassifier classifier(sns1, dopts);
  // A featureless input must still produce some deterministic label.
  ImageU8 blank(64, 64, 3, 128);
  const ObjectClass a = classifier.Classify(blank);
  const ObjectClass b = classifier.Classify(blank);
  EXPECT_EQ(a, b);
}

TEST(EdgeRenderTest, MinimumCanvas) {
  RenderOptions ro;
  ro.canvas_size = 16;
  for (ObjectClass cls : AllClasses()) {
    const ImageU8 img = RenderObjectView(cls, 0, ro);
    EXPECT_EQ(img.width(), 16);
  }
}

TEST(EdgeRenderTest, ExtremeAspect) {
  RenderOptions ro;
  ro.aspect = 0.3;
  const ImageU8 squashed = RenderObjectView(ObjectClass::kDoor, 0, ro);
  ro.aspect = 2.0;
  const ImageU8 stretched = RenderObjectView(ObjectClass::kDoor, 0, ro);
  EXPECT_EQ(squashed.width(), stretched.width());
  EXPECT_FALSE(squashed == stretched);
}

}  // namespace
}  // namespace snor
