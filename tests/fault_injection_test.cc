// End-to-end fault-injection suite: with IO faults, truncated files,
// corrupt pixels, and NaN scores armed at deterministic seeds, no
// pipeline stage crashes — every failure surfaces as a non-OK Status, an
// EvalReport error-ledger entry, or a recorded modality degradation.

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/classifiers.h"
#include "core/experiment.h"
#include "core/feature_cache.h"
#include "img/io_ppm.h"
#include "serve/feature_store.h"
#include "util/fault.h"
#include "util/retry.h"

namespace snor {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().DisarmAll(); }

  static ImageU8 TestImage() {
    ImageU8 img(16, 12, 3, 200);
    for (int y = 4; y < 8; ++y) {
      for (int x = 4; x < 12; ++x) {
        img.at(y, x, 0) = 10;
        img.at(y, x, 1) = 20;
        img.at(y, x, 2) = 30;
      }
    }
    return img;
  }

  static ExperimentContext& SmallContext() {
    static ExperimentContext ctx([] {
      ExperimentConfig config;
      config.canvas_size = 48;
      config.nyu_fraction = 0.005;
      return config;
    }());
    return ctx;
  }

  static std::uint64_t GalleryFingerprint() {
    return serve::OptionsFingerprint(SmallContext().FeatureOptionsFor(true));
  }
};

// --- PPM / PGM IO ---------------------------------------------------------

TEST_F(FaultInjectionTest, TruncatedPpmOnDiskIsIoErrorNotCrash) {
  const std::string path = testing::TempDir() + "/snor_fault_trunc.ppm";
  const ImageU8 img = TestImage();
  ASSERT_TRUE(WritePnm(img, path).ok());
  // Chop the payload short of width*height*3 bytes.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 40));
  }
  const auto result = ReadPnm(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("truncated"),
            std::string::npos);
}

TEST_F(FaultInjectionTest, GarbageHeaderPpmIsIoError) {
  const std::string path = testing::TempDir() + "/snor_fault_garbage.ppm";
  {
    std::ofstream f(path, std::ios::binary);
    f << "P6\nnot-a-number 12\n255\n";
  }
  const auto result = ReadPnm(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(FaultInjectionTest, InjectedReadFaultIsRetryableUnavailable) {
  const std::string path = testing::TempDir() + "/snor_fault_ok.ppm";
  ASSERT_TRUE(WritePnm(TestImage(), path).ok());
  ScopedFault guard(FaultPoint::kIoRead, 1.0, 21);
  const auto result = ReadPnm(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(result.status()));
}

TEST_F(FaultInjectionTest, InjectedReadFaultRecoversUnderRetry) {
  const std::string path = testing::TempDir() + "/snor_fault_retry.ppm";
  ASSERT_TRUE(WritePnm(TestImage(), path).ok());
  // 50% fault rate: with 10 attempts, seed 4 recovers within budget.
  ScopedFault guard(FaultPoint::kIoRead, 0.5, 4);
  RetryOptions retry;
  retry.max_attempts = 10;
  retry.initial_backoff_ms = 0.0;
  const auto result =
      RetryWithBackoff(retry, [&path] { return ReadPnm(path); });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->width(), 16);
}

TEST_F(FaultInjectionTest, InjectedTruncationFaultIsIoError) {
  const std::string path = testing::TempDir() + "/snor_fault_trunc2.ppm";
  ASSERT_TRUE(WritePnm(TestImage(), path).ok());
  ScopedFault guard(FaultPoint::kTruncatedFile, 1.0, 22);
  const auto result = ReadPnm(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(FaultInjectionTest, CorruptPixelFaultIsSilentButDeterministic) {
  const std::string path = testing::TempDir() + "/snor_fault_corrupt.ppm";
  const ImageU8 img = TestImage();
  ASSERT_TRUE(WritePnm(img, path).ok());

  ImageU8 corrupted_a(1, 1, 1);
  ImageU8 corrupted_b(1, 1, 1);
  {
    ScopedFault guard(FaultPoint::kCorruptPixel, 1.0, 23);
    corrupted_a = ReadPnm(path).MoveValue();  // Read still succeeds.
  }
  {
    ScopedFault guard(FaultPoint::kCorruptPixel, 1.0, 23);
    corrupted_b = ReadPnm(path).MoveValue();
  }
  ASSERT_EQ(corrupted_a.size(), img.size());
  int diffs = 0;
  for (std::size_t i = 0; i < img.size(); ++i) {
    if (corrupted_a.data()[i] != img.data()[i]) ++diffs;
    EXPECT_EQ(corrupted_a.data()[i], corrupted_b.data()[i]);
  }
  EXPECT_GT(diffs, 0);

  // A corrupt frame must still flow through preprocessing + features
  // without crashing (it may simply yield different/invalid features).
  Dataset probe;
  probe.items.push_back(
      LabeledImage{corrupted_a, ObjectClass::kChair, 0, 0});
  const auto features = ComputeFeatures(probe, FeatureOptions{});
  EXPECT_EQ(features.size(), 1u);
}

// --- Gallery IO (feature store) ------------------------------------------

TEST_F(FaultInjectionTest, GalleryRoundTripSurvivesFaultFreeRun) {
  const std::string path = testing::TempDir() + "/snor_fault_gallery.fst";
  auto& ctx = SmallContext();
  ASSERT_TRUE(serve::SaveFeatureBank(path, GalleryFingerprint(),
                                     ctx.Sns1Features())
                  .ok());
  const auto loaded = serve::LoadFeatureBank(path, GalleryFingerprint());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), ctx.Sns1Features().size());
}

TEST_F(FaultInjectionTest, TruncatedGalleryFileIsIoError) {
  const std::string path = testing::TempDir() + "/snor_fault_gal_trunc.fst";
  auto& ctx = SmallContext();
  ASSERT_TRUE(serve::SaveFeatureBank(path, GalleryFingerprint(),
                                     ctx.Sns1Features())
                  .ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  const auto result = serve::LoadFeatureBank(path, GalleryFingerprint());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(FaultInjectionTest, MalformedGalleryBytesAreIoErrorNotCrash) {
  const std::string path = testing::TempDir() + "/snor_fault_gal_junk.fst";
  {
    // Right magic, version and fingerprint, garbage after them.
    std::ofstream f(path, std::ios::binary);
    f << "SNORFST1";
    const std::uint32_t version = serve::kFeatureStoreVersion;
    const std::uint64_t fingerprint = GalleryFingerprint();
    const std::uint32_t count = 1;
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    f.write(reinterpret_cast<const char*>(&fingerprint), sizeof(fingerprint));
    f.write(reinterpret_cast<const char*>(&count), sizeof(count));
    f << "garbage-that-is-not-a-gallery-entry-nor-its-checksum-and-then-some";
  }
  const auto result = serve::LoadFeatureBank(path, GalleryFingerprint());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(FaultInjectionTest, InjectedGalleryTruncationIsIoError) {
  const std::string path = testing::TempDir() + "/snor_fault_gal_inj.fst";
  auto& ctx = SmallContext();
  ASSERT_TRUE(serve::SaveFeatureBank(path, GalleryFingerprint(),
                                     ctx.Sns1Features())
                  .ok());
  ScopedFault guard(FaultPoint::kTruncatedFile, 1.0, 31);
  const auto result = serve::LoadFeatureBank(path, GalleryFingerprint());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("injected"), std::string::npos);
}

// --- Classifier factory ---------------------------------------------------

TEST_F(FaultInjectionTest, EmptyGalleryIsInvalidArgumentNotAbort) {
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kHybrid;
  const auto classifier = MakeClassifier(spec, {});
  ASSERT_FALSE(classifier.ok());
  EXPECT_EQ(classifier.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FaultInjectionTest, AllInvalidGalleryIsUnavailable) {
  std::vector<ImageFeatures> gallery(4);  // valid == false everywhere.
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kShape;
  const auto classifier = MakeClassifier(spec, std::move(gallery));
  ASSERT_FALSE(classifier.ok());
  EXPECT_EQ(classifier.status().code(), StatusCode::kUnavailable);
}

TEST_F(FaultInjectionTest, RunApproachPropagatesEmptyGalleryStatus) {
  auto& ctx = SmallContext();
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kColor;
  const auto report = ctx.RunApproach(spec, ctx.Sns2Features(), {});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// --- Batch evaluation: skip-and-record ------------------------------------

TEST_F(FaultInjectionTest, IngestFaultsDegradeCoverageNotCorrectness) {
  auto& ctx = SmallContext();
  const auto& gallery = ctx.Sns1Features();

  // Recompute SNS2 features with a 20% ingest-fault rate armed, using
  // the same options the context's cache uses.
  FeatureOptions options;
  options.preprocess.white_background = true;
  options.hist_bins = ctx.config().hist_bins;
  std::vector<ImageFeatures> inputs;
  {
    ScopedFault guard(FaultPoint::kIoRead, 0.2, 77);
    inputs = ComputeFeatures(ctx.Sns2(), options);
  }
  std::size_t faulted = 0;
  for (const auto& f : inputs) {
    if (!f.status.ok() && f.status.code() == StatusCode::kUnavailable) {
      ++faulted;
    }
  }
  ASSERT_GT(faulted, 0u);
  ASSERT_LT(faulted, inputs.size());

  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kHybrid;
  const auto report = ctx.RunApproach(spec, inputs, gallery);
  ASSERT_TRUE(report.ok()) << report.status();

  // Every faulted item shows up in the ledger as an ingest skip; the
  // evaluated count drops accordingly and coverage reflects it.
  std::size_t ingest_entries = 0;
  for (const auto& e : report->errors) {
    if (e.stage == "ingest") {
      ++ingest_entries;
      EXPECT_EQ(e.status.code(), StatusCode::kUnavailable);
      EXPECT_GE(e.index, 0);
      EXPECT_LT(e.index, static_cast<int>(inputs.size()));
    }
  }
  EXPECT_EQ(ingest_entries, faulted);
  EXPECT_EQ(report->attempted, static_cast<int>(inputs.size()));
  EXPECT_EQ(report->total, static_cast<int>(inputs.size() - faulted));
  EXPECT_LT(report->Coverage(), 1.0);
  EXPECT_GT(report->Coverage(), 0.0);

  // Correctness over the covered items stays in the clean run's regime.
  const auto clean =
      ctx.RunApproach(spec, ctx.Sns2Features(), gallery).value();
  EXPECT_NEAR(report->cumulative_accuracy, clean.cumulative_accuracy, 0.15);
}

TEST_F(FaultInjectionTest, CleanRunHasEmptyLedgerAndFullCoverage) {
  auto& ctx = SmallContext();
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kHybrid;
  const auto report =
      ctx.RunApproach(spec, ctx.Sns2Features(), ctx.Sns1Features());
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->Coverage(), 1.0);
  EXPECT_EQ(report->attempted, report->total);
}

// --- Hybrid graceful degradation ------------------------------------------

TEST_F(FaultInjectionTest, PoisonedShapeModalityFallsBackToColor) {
  auto& ctx = SmallContext();
  const auto& gallery = ctx.Sns1Features();
  const auto& inputs = ctx.Sns2Features();

  HybridClassifier hybrid(gallery, ShapeMatchMethod::kI3,
                          HistCompareMethod::kHellinger, 0.3, 0.7,
                          HybridStrategy::kWeightedSum);
  ColorOnlyClassifier color(gallery, HistCompareMethod::kHellinger);
  ShapeOnlyClassifier shape(gallery, ShapeMatchMethod::kI3);

  std::vector<ObjectClass> degraded_preds;
  std::vector<ObjectClass> shape_preds;
  {
    // Every shape score NaN: the shape modality collapses per input.
    ScopedFault guard(FaultPoint::kNanScore, 1.0, 55);
    degraded_preds = hybrid.ClassifyAll(inputs);
    shape_preds = shape.ClassifyAll(inputs);
  }
  // Shape-only matching has no surviving modality: every input gets the
  // fallback label and is counted as a fallback.
  EXPECT_EQ(shape.degradation().fallback, inputs.size());
  for (const ObjectClass label : shape_preds) {
    EXPECT_EQ(label, gallery.front().label);
  }
  const std::vector<ObjectClass> color_preds = color.ClassifyAll(inputs);

  ASSERT_EQ(degraded_preds.size(), color_preds.size());
  std::size_t valid_inputs = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!inputs[i].valid) continue;
    ++valid_inputs;
    EXPECT_EQ(degraded_preds[i], color_preds[i]) << "input " << i;
  }
  ASSERT_GT(valid_inputs, 0u);
  EXPECT_EQ(hybrid.degradation().color_only, valid_inputs);
  EXPECT_EQ(hybrid.degradation().shape_only, 0u);
}

TEST_F(FaultInjectionTest, PoisonedColorModalityFallsBackToShape) {
  auto& ctx = SmallContext();
  const auto& gallery = ctx.Sns1Features();

  HybridClassifier hybrid(gallery, ShapeMatchMethod::kI3,
                          HistCompareMethod::kHellinger, 0.3, 0.7,
                          HybridStrategy::kWeightedSum);
  ShapeOnlyClassifier shape(gallery, ShapeMatchMethod::kI3);

  // Poison the colour modality of one valid input directly (NaN bins):
  ImageFeatures poisoned;
  for (const auto& f : ctx.Sns2Features()) {
    if (f.valid) {
      poisoned = f;
      break;
    }
  }
  ASSERT_TRUE(poisoned.valid);
  for (double& b : poisoned.histogram.bins()) {
    b = std::numeric_limits<double>::quiet_NaN();
  }

  EXPECT_EQ(hybrid.Classify(poisoned), shape.Classify(poisoned));
  EXPECT_EQ(hybrid.degradation().shape_only, 1u);
  EXPECT_EQ(hybrid.degradation().color_only, 0u);
}

TEST_F(FaultInjectionTest, BothModalitiesPoisonedFallsBackDeterministic) {
  auto& ctx = SmallContext();
  HybridClassifier hybrid(ctx.Sns1Features(), ShapeMatchMethod::kI3,
                          HistCompareMethod::kHellinger, 0.3, 0.7,
                          HybridStrategy::kWeightedSum);
  ImageFeatures dead;  // Invalid, zero-mass histogram.
  const ObjectClass label = hybrid.Classify(dead);
  EXPECT_EQ(label, ctx.Sns1Features().front().label);
  EXPECT_EQ(hybrid.degradation().fallback, 1u);
}

TEST_F(FaultInjectionTest, RunApproachCountsHybridDegradations) {
  auto& ctx = SmallContext();
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kHybrid;
  ScopedFault guard(FaultPoint::kNanScore, 1.0, 56);
  const auto report =
      ctx.RunApproach(spec, ctx.Sns2Features(), ctx.Sns1Features());
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->degraded_color_only, 0u);
}

// --- Whole-table robustness: no fault combination aborts ------------------

TEST_F(FaultInjectionTest, AllApproachesSurviveCombinedFaults) {
  auto& ctx = SmallContext();
  ScopedFault nan_guard(FaultPoint::kNanScore, 0.05, 91);
  ScopedFault slow_guard(FaultPoint::kSlowWorker, 0.01, 92);
  for (const auto& spec : Table2Approaches()) {
    const auto report =
        ctx.RunApproach(spec, ctx.Sns2Features(), ctx.Sns1Features());
    ASSERT_TRUE(report.ok()) << spec.DisplayName();
    EXPECT_EQ(report->attempted,
              static_cast<int>(ctx.Sns2Features().size()));
  }
}

}  // namespace
}  // namespace snor
