// Final coverage batch: error paths and cross-module integrations not
// exercised elsewhere.

#include <cstdint>

#include <gtest/gtest.h>

#include "core/classifiers.h"
#include "core/experiment.h"
#include "knowledge/semantic_map.h"
#include "nn/model.h"
#include "serve/feature_store.h"
#include "util/rng.h"
#include "util/table.h"

namespace snor {
namespace {

TEST(ErrorPathTest, ModelSaveToUnwritablePath) {
  XCorrModelConfig config;
  config.input_height = 16;
  config.input_width = 16;
  config.trunk_conv1_channels = 4;
  config.trunk_conv2_channels = 6;
  config.xcorr_search_y = 1;
  config.xcorr_search_x = 1;
  config.head_conv_channels = 8;
  config.dense_units = 16;
  XCorrModel model(config);
  const Status status = model.Save("/nonexistent_dir/weights.bin");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(ErrorPathTest, GallerySaveToUnwritablePath) {
  std::vector<ImageFeatures> features(1);
  EXPECT_FALSE(
      serve::SaveFeatureBank("/nonexistent_dir/g.fst", 0, features).ok());
}

TEST(ErrorPathTest, LoadWrongMagicKind) {
  // A model-weights file is not a feature-store file.
  XCorrModelConfig config;
  config.input_height = 16;
  config.input_width = 16;
  config.trunk_conv1_channels = 4;
  config.trunk_conv2_channels = 6;
  config.xcorr_search_y = 1;
  config.xcorr_search_x = 1;
  config.head_conv_channels = 8;
  config.dense_units = 16;
  XCorrModel model(config);
  const std::string path = testing::TempDir() + "/snor_weights_as_g.bin";
  ASSERT_TRUE(model.Save(path).ok());
  const auto loaded = serve::LoadFeatureBank(path, 0);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(RngForkTest, ForkIsDeterministic) {
  Rng a(42);
  Rng b(42);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(fa.NextU64(), fb.NextU64());
  }
}

TEST(TablePrinterTest, NoRowsStillRendersHeader) {
  TablePrinter t({"OnlyHeader"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("OnlyHeader"), std::string::npos);
  // Three rules + one header line.
  int lines = 0;
  for (char c : s) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4);
}

// End-to-end: classifier predictions drive the semantic map, and concept
// queries reflect what the recogniser actually found.
TEST(IntegrationTest, ClassifierFeedsSemanticMap) {
  ExperimentConfig config;
  config.canvas_size = 64;
  config.nyu_fraction = 0.01;
  ExperimentContext context(config);
  HybridClassifier classifier(context.Sns1Features(), ShapeMatchMethod::kI3,
                              HistCompareMethod::kHellinger, 0.3, 0.7,
                              HybridStrategy::kWeightedSum);

  SemanticMap map(0.5);
  // Feed the SNS2 gallery as "observations" at distinct positions.
  const auto& inputs = context.Sns2Features();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    map.AddObservation(static_cast<double>(i) * 2.0, 0.0,
                       classifier.Classify(inputs[i]));
  }
  EXPECT_EQ(map.objects().size(), inputs.size());

  // Inventory total matches observations, and at least one "furniture"
  // concept hit exists (chairs/tables/sofas are classified above chance).
  int total = 0;
  for (int c : map.Inventory()) total += c;
  EXPECT_EQ(total, static_cast<int>(inputs.size()));
  EXPECT_FALSE(map.FindByConcept("furniture").empty());
}

TEST(IntegrationTest, SavedGalleryRoundTripsThroughAllClassifiers) {
  ExperimentConfig config;
  config.canvas_size = 48;
  config.nyu_fraction = 0.005;
  ExperimentContext context(config);
  const std::string path = testing::TempDir() + "/snor_full_gallery.fst";
  const std::uint64_t fp =
      serve::OptionsFingerprint(context.FeatureOptionsFor(true));
  ASSERT_TRUE(
      serve::SaveFeatureBank(path, fp, context.Sns1Features()).ok());
  auto loaded = serve::LoadFeatureBank(path, fp);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Every matching classifier family accepts the loaded gallery.
  ShapeOnlyClassifier shape(*loaded, ShapeMatchMethod::kI1);
  ColorOnlyClassifier color(*loaded, HistCompareMethod::kCorrelation);
  HybridClassifier hybrid(*loaded, ShapeMatchMethod::kI3,
                          HistCompareMethod::kHellinger, 0.3, 0.7,
                          HybridStrategy::kMicroAverage);
  const ImageFeatures& probe = context.Sns2Features()[0];
  (void)shape.Classify(probe);
  (void)color.Classify(probe);
  (void)hybrid.Classify(probe);
}

TEST(IntegrationTest, AllTable2ApproachesRunOnHsvFeatures) {
  // The HSV ablation path composes with every approach without touching
  // classifier code.
  ExperimentConfig config;
  config.canvas_size = 48;
  config.nyu_fraction = 0.005;
  ExperimentContext context(config);
  FeatureOptions fo;
  fo.use_hsv = true;
  const auto inputs = ComputeFeatures(context.Sns2(), fo);
  const auto gallery = ComputeFeatures(context.Sns1(), fo);
  for (const auto& spec : Table2Approaches()) {
    auto classifier = MakeClassifier(spec, gallery, 1).MoveValue();
    const auto preds = classifier->ClassifyAll(inputs);
    EXPECT_EQ(preds.size(), inputs.size()) << spec.DisplayName();
  }
}

}  // namespace
}  // namespace snor
