// Tests for scene composition, frame segmentation, gallery serialization,
// the parallel-for utility, and the HSV colour path.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/classifiers.h"
#include "core/experiment.h"
#include "core/gallery_io.h"
#include "core/segmentation.h"
#include "data/scene.h"
#include "hostile_input.h"
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

TEST(GalleryIoTest, RoundTripPreservesFeatures) {
  ExperimentConfig config;
  config.canvas_size = 48;
  config.nyu_fraction = 0.005;
  ExperimentContext context(config);
  const auto& original = context.Sns1Features();

  const std::string path = testing::TempDir() + "/snor_gallery_test.bin";
  ASSERT_TRUE(SaveFeatures(original, path).ok());
  auto loaded = LoadFeatures(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*loaded)[i].label, original[i].label);
    EXPECT_EQ((*loaded)[i].model_id, original[i].model_id);
    EXPECT_EQ((*loaded)[i].valid, original[i].valid);
    for (int h = 0; h < 7; ++h) {
      EXPECT_DOUBLE_EQ((*loaded)[i].hu[static_cast<std::size_t>(h)],
                       original[i].hu[static_cast<std::size_t>(h)]);
    }
    EXPECT_EQ((*loaded)[i].histogram.bins(), original[i].histogram.bins());
  }
}

TEST(GalleryIoTest, LoadedGalleryClassifiesIdentically) {
  ExperimentConfig config;
  config.canvas_size = 48;
  config.nyu_fraction = 0.005;
  ExperimentContext context(config);
  const std::string path = testing::TempDir() + "/snor_gallery_cls.bin";
  ASSERT_TRUE(SaveFeatures(context.Sns1Features(), path).ok());
  auto loaded = LoadFeatures(path);
  ASSERT_TRUE(loaded.ok());

  HybridClassifier original(context.Sns1Features(), ShapeMatchMethod::kI3,
                            HistCompareMethod::kHellinger, 0.3, 0.7,
                            HybridStrategy::kWeightedSum);
  HybridClassifier restored(loaded.MoveValue(), ShapeMatchMethod::kI3,
                            HistCompareMethod::kHellinger, 0.3, 0.7,
                            HybridStrategy::kWeightedSum);
  const auto p1 = original.ClassifyAll(context.Sns2Features());
  const auto p2 = restored.ClassifyAll(context.Sns2Features());
  EXPECT_EQ(p1, p2);
}

TEST(GalleryIoTest, RejectsCorruptFiles) {
  const std::string path = testing::TempDir() + "/snor_corrupt.bin";
  {
    std::ofstream f(path, std::ios::binary);
    f << "not a gallery";
  }
  EXPECT_FALSE(LoadFeatures(path).ok());
  EXPECT_FALSE(LoadFeatures("/nonexistent/gallery.bin").ok());
}

TEST(GalleryIoTest, RejectsTruncatedFile) {
  ExperimentConfig config;
  config.canvas_size = 48;
  config.nyu_fraction = 0.005;
  ExperimentContext context(config);
  const std::string path = testing::TempDir() + "/snor_trunc_gallery.bin";
  ASSERT_TRUE(SaveFeatures(context.Sns1Features(), path).ok());
  // Truncate the file to half.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_FALSE(LoadFeatures(path).ok());
}

/// A gallery file declaring `count` entries, then `entry_bytes`.
std::string GalleryFile(std::uint32_t count, const std::string& entry_bytes) {
  std::string file("SNORG001", 8);
  hostile::Put(&file, count);
  return file + entry_bytes;
}

/// One entry up to its bin count, then 64 bytes of a truncated histogram.
std::string EntryWithBins(std::int32_t bins_per_channel) {
  std::string e;
  hostile::Put(&e, std::int32_t{0});  // Label.
  hostile::Put(&e, std::int32_t{0});  // Model id.
  hostile::Put(&e, std::uint8_t{1});  // Valid.
  for (int i = 0; i < 7; ++i) hostile::Put(&e, 0.0);
  hostile::Put(&e, bins_per_channel);
  return e + std::string(64, '\0');
}

[[noreturn]] void LoadGalleryAndExit(const std::string& path,
                                     const std::string& expected) {
  if (!hostile::CapAddressSpace()) std::_Exit(2);
  const auto loaded = LoadFeatures(path);
  const Status& status = loaded.status();
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::_Exit(status.code() == StatusCode::kIoError &&
                     status.message().find(expected) != std::string::npos
                 ? 0
                 : 1);
}

TEST(GalleryIoTest, HostileCountsAreRejectedBeforeAllocating) {
  if (SNOR_HOSTILE_INPUT_UNSUPPORTED) {
    GTEST_SKIP() << "address-space cap is unavailable under sanitizers";
  }
  const struct {
    const char* name;
    std::string bytes;
    const char* expected;
  } cases[] = {
      {"10M entries in a 12-byte file", GalleryFile(10'000'000u, ""),
       "entries"},
      {"256 bins per channel, 64 histogram bytes",
       GalleryFile(1, EntryWithBins(256)), "histogram"},
  };
  const std::string path = testing::TempDir() + "/snor_gallery_hostile.bin";
  for (const auto& c : cases) {
    hostile::WriteFile(path, c.bytes);
    EXPECT_EXIT(LoadGalleryAndExit(path, c.expected),
                ::testing::ExitedWithCode(0), "")
        << c.name;
  }
}

TEST(GalleryIoTest, ConcurrentSavesToOnePathNeverTearTheFile) {
  ExperimentConfig config;
  config.canvas_size = 48;
  config.nyu_fraction = 0.005;
  ExperimentContext context(config);
  const std::vector<ImageFeatures> galleries[2] = {
      context.Sns1Features(),
      std::vector<ImageFeatures>(context.Sns1Features().begin(),
                                 context.Sns1Features().begin() + 5)};
  auto same = [](const std::vector<ImageFeatures>& got,
                 const std::vector<ImageFeatures>& want) {
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].model_id != want[i].model_id || got[i].hu != want[i].hu ||
          got[i].histogram.bins() != want[i].histogram.bins()) {
        return false;
      }
    }
    return true;
  };
  const std::string path = testing::TempDir() + "/snor_gallery_race.bin";
  std::remove(path.c_str());
  std::atomic<bool> reading{false};
  std::atomic<int> writers_done{0};
  std::atomic<int> failed_saves{0};
  auto writer = [&](int w) {
    while (!reading.load()) std::this_thread::yield();
    for (int i = 0; i < 20; ++i) {
      if (!SaveFeatures(galleries[w], path).ok()) ++failed_saves;
    }
    ++writers_done;
  };
  std::thread t0(writer, 0);
  std::thread t1(writer, 1);
  reading = true;
  int loads = 0;
  int bad_loads = 0;
  // Load until both writers are done, and once more after that.
  for (bool more = true; more;) {
    more = writers_done.load() < 2;
    auto loaded = LoadFeatures(path);
    // Before the first save lands there is no file to open.
    if (loads == 0 && !loaded.ok() &&
        loaded.status().message().find("cannot open") != std::string::npos) {
      continue;
    }
    ++loads;
    if (!loaded.ok() ||
        !(same(*loaded, galleries[0]) || same(*loaded, galleries[1]))) {
      ++bad_loads;
    }
  }
  t0.join();
  t1.join();
  EXPECT_EQ(failed_saves.load(), 0);
  EXPECT_GT(loads, 0);
  EXPECT_EQ(bad_loads, 0) << "of " << loads << " loads";
  auto last = LoadFeatures(path);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_TRUE(same(*last, galleries[0]) || same(*last, galleries[1]));
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
