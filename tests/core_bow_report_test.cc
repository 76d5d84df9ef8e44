#include <gtest/gtest.h>

#include "core/bow_classifier.h"
#include "core/evaluation.h"
#include "core/preprocess.h"
#include "img/draw.h"

namespace snor {
namespace {

DatasetOptions SmallData() {
  DatasetOptions opts;
  opts.canvas_size = 64;
  return opts;
}

TEST(BowClassifierTest, BuildsVocabularyAndHistograms) {
  const Dataset sns1 = MakeShapeNetSet1(SmallData());
  BowOptions opts;
  opts.vocabulary_size = 32;
  BowClassifier classifier(sns1, opts);
  EXPECT_GT(classifier.vocabulary_size(), 8u);
  EXPECT_LE(classifier.vocabulary_size(), 32u);
  EXPECT_EQ(classifier.num_gallery_views(), 82u);
}

TEST(BowClassifierTest, WordHistogramIsNormalized) {
  const Dataset sns1 = MakeShapeNetSet1(SmallData());
  BowOptions opts;
  opts.vocabulary_size = 16;
  BowClassifier classifier(sns1, opts);
  const auto hist = classifier.WordHistogram(sns1.items[0].image);
  double total = 0.0;
  for (float v : hist) {
    EXPECT_GE(v, 0.0f);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-5);
}

TEST(BowClassifierTest, SelfGalleryClassificationIsStrong) {
  const Dataset sns1 = MakeShapeNetSet1(SmallData());
  BowOptions opts;
  opts.vocabulary_size = 48;
  BowClassifier classifier(sns1, opts);
  int correct = 0;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    if (classifier.Classify(sns1.items[static_cast<std::size_t>(i)].image) ==
        sns1.items[static_cast<std::size_t>(i)].label) {
      ++correct;
    }
  }
  EXPECT_GE(correct, n * 3 / 4);
}

TEST(BowClassifierTest, CrossSetBeatsChance) {
  const Dataset sns2 = MakeShapeNetSet2(SmallData());
  DatasetOptions opts1 = SmallData();
  const Dataset sns1 = MakeShapeNetSet1(opts1);
  BowOptions opts;
  opts.vocabulary_size = 48;
  BowClassifier classifier(sns2, opts);
  std::vector<ObjectClass> truth;
  for (const auto& item : sns1.items) truth.push_back(item.label);
  const EvalReport report = Evaluate(truth, classifier.ClassifyAll(sns1));
  EXPECT_GT(report.cumulative_accuracy, 0.12);
}

TEST(OtsuPreprocessTest, MatchesFixedThresholdOnCleanInput) {
  ImageU8 img(80, 80, 3);
  FillRect(img, 0, 0, 80, 80, Rgb{255, 255, 255});
  FillRect(img, 20, 20, 30, 25, Rgb{90, 40, 40});
  PreprocessOptions fixed;
  PreprocessOptions otsu;
  otsu.use_otsu = true;
  const auto r1 = Preprocess(img, fixed);
  const auto r2 = Preprocess(img, otsu);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->cropped_rgb.width(), r2->cropped_rgb.width());
  EXPECT_EQ(r1->cropped_rgb.height(), r2->cropped_rgb.height());
}

TEST(OtsuPreprocessTest, HandlesLowContrastBetterThanFixed) {
  // Object at intensity 240 on white 255: the fixed threshold (245)
  // catches it, and Otsu must as well.
  ImageU8 img(60, 60, 3);
  FillRect(img, 0, 0, 60, 60, Rgb{255, 255, 255});
  FillRect(img, 15, 15, 25, 25, Rgb{240, 240, 240});
  PreprocessOptions otsu;
  otsu.use_otsu = true;
  otsu.white_background = true;
  const auto result = Preprocess(img, otsu);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cropped_rgb.width(), 25);
}

}  // namespace
}  // namespace snor
