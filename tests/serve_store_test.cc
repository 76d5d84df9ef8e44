#include "serve/feature_store.h"

#include <sys/resource.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/classifiers.h"
#include "core/experiment.h"
#include "hostile_input.h"
#include "obs/metrics.h"
#include "util/fault.h"
#include "util/rng.h"

namespace snor::serve {
namespace {

ImageFeatures MakeFeatures(int label_index, int model_id, bool valid,
                           std::uint64_t seed) {
  Rng rng(seed);
  ImageFeatures f;
  f.label = ClassFromIndex(label_index);
  f.model_id = model_id;
  f.valid = valid;
  for (double& h : f.hu) h = rng.Uniform(-1.0, 1.0);
  f.histogram = ColorHistogram(8);
  for (double& bin : f.histogram.bins()) bin = rng.UniformDouble();
  return f;
}

void ExpectFeaturesEqual(const ImageFeatures& a, const ImageFeatures& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.model_id, b.model_id);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.hu, b.hu);  // Exact: persistence must be bit-faithful.
  ASSERT_EQ(a.histogram.bins_per_channel(), b.histogram.bins_per_channel());
  EXPECT_EQ(a.histogram.bins(), b.histogram.bins());
}

TEST(FeatureStoreTest, RoundTripPreservesEveryField) {
  std::vector<ImageFeatures> bank;
  for (int i = 0; i < 12; ++i) {
    // Every class index, a mix of valid and invalid records.
    bank.push_back(MakeFeatures(i % kNumClasses, i, i % 3 != 0, 1000u + i));
  }
  const std::string path =
      testing::TempDir() + "/snor_store_roundtrip.fst";
  const std::uint64_t fp = 0xabcdef12345678ull;
  ASSERT_TRUE(SaveFeatureBank(path, fp, bank).ok());

  auto loaded = LoadFeatureBank(path, fp);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), bank.size());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    ExpectFeaturesEqual(loaded.value()[i], bank[i]);
  }
}

TEST(FeatureStoreTest, EmptyStoreRoundTrips) {
  const std::string path = testing::TempDir() + "/snor_store_empty.fst";
  ASSERT_TRUE(SaveFeatureBank(path, 7, {}).ok());
  auto loaded = LoadFeatureBank(path, 7);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST(FeatureStoreTest, BankRoundTripPreservesInvalidRecords) {
  std::vector<ImageFeatures> bank;
  bank.push_back(MakeFeatures(2, 5, true, 42));
  bank.push_back(MakeFeatures(7, 1, false, 43));  // Preprocess failure.
  const std::string path = testing::TempDir() + "/snor_bank.fst";
  ASSERT_TRUE(SaveFeatureBank(path, 99, bank).ok());
  auto loaded = LoadFeatureBank(path, 99);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);
  ExpectFeaturesEqual(loaded.value()[0], bank[0]);
  ExpectFeaturesEqual(loaded.value()[1], bank[1]);
  EXPECT_FALSE(loaded.value()[1].valid);
}

TEST(FeatureStoreTest, FingerprintMismatchIsInvalidArgument) {
  const std::string path = testing::TempDir() + "/snor_store_fp.fst";
  ASSERT_TRUE(SaveFeatureBank(path, 1, {MakeFeatures(0, 0, true, 1)}).ok());
  auto loaded = LoadFeatureBank(path, 2);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(FeatureStoreTest, MissingFileIsIoError) {
  auto loaded = LoadFeatureBank("/nonexistent/snor.fst", 0);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(FeatureStoreTest, BadMagicIsIoError) {
  const std::string path = testing::TempDir() + "/snor_store_magic.fst";
  {
    std::ofstream f(path, std::ios::binary);
    f << "NOTASTOREatall----------------";
  }
  auto loaded = LoadFeatureBank(path, 0);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(FeatureStoreTest, VersionMismatchIsIoError) {
  const std::string path = testing::TempDir() + "/snor_store_version.fst";
  // Version 1 records also carried keypoint descriptors; a newer version
  // is unknown. Both must fail at the version field.
  for (const std::uint32_t version : {1u, kFeatureStoreVersion + 1}) {
    {
      std::ofstream f(path, std::ios::binary);
      f.write("SNORFST1", 8);
      const std::uint64_t fp = 0;
      const std::uint32_t count = 0;
      f.write(reinterpret_cast<const char*>(&version), sizeof(version));
      f.write(reinterpret_cast<const char*>(&fp), sizeof(fp));
      f.write(reinterpret_cast<const char*>(&count), sizeof(count));
    }
    auto loaded = LoadFeatureBank(path, 0);
    ASSERT_FALSE(loaded.ok()) << "version " << version;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
}

TEST(FeatureStoreTest, PayloadCorruptionIsIoError) {
  const std::string path = testing::TempDir() + "/snor_store_corrupt.fst";
  ASSERT_TRUE(
      SaveFeatureBank(path, 5, {MakeFeatures(3, 0, true, 77)}).ok());
  // Flip one byte in the middle of the record payload; the per-record
  // checksum must catch it.
  std::string raw;
  {
    std::ifstream f(path, std::ios::binary);
    raw.assign(std::istreambuf_iterator<char>(f), {});
  }
  raw[raw.size() / 2] = static_cast<char>(raw[raw.size() / 2] ^ 0x40);
  {
    std::ofstream f(path, std::ios::binary);
    f.write(raw.data(), static_cast<std::streamsize>(raw.size()));
  }
  auto loaded = LoadFeatureBank(path, 5);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(FeatureStoreTest, TruncatedFileIsIoError) {
  const std::string path = testing::TempDir() + "/snor_store_trunc.fst";
  ASSERT_TRUE(
      SaveFeatureBank(path, 5, {MakeFeatures(3, 0, true, 77)}).ok());
  std::string raw;
  {
    std::ifstream f(path, std::ios::binary);
    raw.assign(std::istreambuf_iterator<char>(f), {});
  }
  {
    std::ofstream f(path, std::ios::binary);
    f.write(raw.data(), static_cast<std::streamsize>(raw.size() - 9));
  }
  auto loaded = LoadFeatureBank(path, 5);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(FeatureStoreTest, OversizedRecordLengthIsRejectedBeforeAllocating) {
  const std::string path = testing::TempDir() + "/snor_store_oversize.fst";
  ASSERT_TRUE(
      SaveFeatureBank(path, 5, {MakeFeatures(3, 0, true, 77)}).ok());
  std::string raw;
  {
    std::ifstream f(path, std::ios::binary);
    raw.assign(std::istreambuf_iterator<char>(f), {});
  }
  // Overwrite the first record's length field (it sits right after the
  // 24-byte header) with ~200 MiB — under the absolute record cap, but
  // far beyond what this tiny file holds. The loader must reject the
  // declared length against the remaining file size BEFORE allocating a
  // payload buffer for it.
  const std::uint32_t bogus_size = 200u * 1024u * 1024u;
  ASSERT_GE(raw.size(), 24u + sizeof(bogus_size));
  std::memcpy(raw.data() + 24, &bogus_size, sizeof(bogus_size));
  {
    std::ofstream f(path, std::ios::binary);
    f.write(raw.data(), static_cast<std::streamsize>(raw.size()));
  }
  auto loaded = LoadFeatureBank(path, 5);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  // The pre-allocation bounds check fired, not the post-read truncation
  // path: the message reports how many bytes actually remain.
  EXPECT_NE(loaded.status().message().find("remain"), std::string::npos)
      << loaded.status().ToString();
}

TEST(FeatureStoreTest, RecordLengthPastEofUnderIoReadFaultStaysAnError) {
  // Same corruption with the io-read fault armed at a rate of zero: the
  // fault plumbing must not mask the bounds rejection.
  const std::string path = testing::TempDir() + "/snor_store_oversize2.fst";
  ASSERT_TRUE(
      SaveFeatureBank(path, 5, {MakeFeatures(4, 1, true, 78)}).ok());
  std::string raw;
  {
    std::ifstream f(path, std::ios::binary);
    raw.assign(std::istreambuf_iterator<char>(f), {});
  }
  const std::uint32_t bogus_size =
      static_cast<std::uint32_t>(raw.size());  // > remaining by definition.
  ASSERT_GE(raw.size(), 24u + sizeof(bogus_size));
  std::memcpy(raw.data() + 24, &bogus_size, sizeof(bogus_size));
  {
    std::ofstream f(path, std::ios::binary);
    f.write(raw.data(), static_cast<std::streamsize>(raw.size()));
  }
  ScopedFault io_read(FaultPoint::kIoRead, 0.0, 7);
  auto loaded = LoadFeatureBank(path, 5);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(FeatureStoreTest, TruncationFaultPointFiresDeterministically) {
  const std::string path = testing::TempDir() + "/snor_store_fault.fst";
  ASSERT_TRUE(
      SaveFeatureBank(path, 5, {MakeFeatures(3, 0, true, 77)}).ok());
  ASSERT_TRUE(LoadFeatureBank(path, 5).ok());
  ScopedFault truncated(FaultPoint::kTruncatedFile, 1.0, 7);
  auto loaded = LoadFeatureBank(path, 5);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(FeatureStoreTest, IoReadFaultPointGuardsTheOpen) {
  const std::string path = testing::TempDir() + "/snor_store_ioread.fst";
  ASSERT_TRUE(SaveFeatureBank(path, 5, {}).ok());
  ScopedFault io(FaultPoint::kIoRead, 1.0, 3);
  auto loaded = LoadFeatureBank(path, 5);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
}

TEST(FeatureStoreTest, FingerprintSeparatesOptionSpaces) {
  FeatureOptions a;
  FeatureOptions b = a;
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(b));
  b.hist_bins = a.hist_bins + 8;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
  FeatureOptions c;
  c.mask_histogram = !c.mask_histogram;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(c));
  FeatureOptions d;
  d.preprocess.white_background = !d.preprocess.white_background;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(d));
}

TEST(FeatureStoreTest, LoadOrComputeMissesThenHits) {
  DatasetOptions dataset_options;
  dataset_options.canvas_size = 32;
  const Dataset dataset = MakeShapeNetSet2(dataset_options);
  FeatureOptions options;
  options.hist_bins = 4;

  auto& registry = obs::MetricsRegistry::Global();
  auto& hits = registry.counter("serve.store.hit");
  auto& misses = registry.counter("serve.store.miss");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();

  const std::string path = testing::TempDir() + "/snor_store_warm.fst";
  std::remove(path.c_str());
  auto cold = LoadOrComputeFeatures(path, dataset, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(misses.value() - misses_before, 1u);
  EXPECT_EQ(hits.value() - hits_before, 0u);

  auto warm = LoadOrComputeFeatures(path, dataset, options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(hits.value() - hits_before, 1u);
  ASSERT_EQ(warm.value().size(), cold.value().size());
  for (std::size_t i = 0; i < warm.value().size(); ++i) {
    ExpectFeaturesEqual(warm.value()[i], cold.value()[i]);
  }

  // Different options must refuse the stale store and recompute.
  FeatureOptions other = options;
  other.hist_bins = 8;
  auto recomputed = LoadOrComputeFeatures(path, dataset, other);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_EQ(misses.value() - misses_before, 2u);
}

TEST(FeatureStoreTest, LoadedGalleryClassifiesIdentically) {
  ExperimentConfig config;
  config.canvas_size = 48;
  config.nyu_fraction = 0.005;
  ExperimentContext context(config);
  const std::string path = testing::TempDir() + "/snor_store_cls.fst";
  const std::uint64_t fp = OptionsFingerprint(context.FeatureOptionsFor(true));
  ASSERT_TRUE(SaveFeatureBank(path, fp, context.Sns1Features()).ok());
  auto loaded = LoadFeatureBank(path, fp);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  HybridClassifier original(context.Sns1Features(), ShapeMatchMethod::kI3,
                            HistCompareMethod::kHellinger, 0.3, 0.7,
                            HybridStrategy::kWeightedSum);
  HybridClassifier restored(loaded.MoveValue(), ShapeMatchMethod::kI3,
                            HistCompareMethod::kHellinger, 0.3, 0.7,
                            HybridStrategy::kWeightedSum);
  EXPECT_EQ(original.ClassifyAll(context.Sns2Features()),
            restored.ClassifyAll(context.Sns2Features()));
}

// ------------------------------------------------------ hostile counts --

constexpr std::uint64_t kHostileFingerprint = 5;

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Record payload fields up to and including the histogram bin count.
std::string PayloadHead(std::int32_t bins_per_channel) {
  std::string p;
  hostile::Put(&p, std::int32_t{0});  // Label.
  hostile::Put(&p, std::int32_t{0});  // Model id.
  hostile::Put(&p, std::uint8_t{1});  // Valid.
  for (int i = 0; i < 7; ++i) hostile::Put(&p, 0.0);
  hostile::Put(&p, bins_per_channel);
  return p;
}

/// A store file declaring `count` records, holding one record with
/// `payload` (and a valid checksum) unless the payload is empty. Padding
/// keeps every file large enough that the record count alone passes.
std::string StoreFile(std::uint32_t count, std::string payload) {
  std::string file("SNORFST1", 8);
  hostile::Put(&file, kFeatureStoreVersion);
  hostile::Put(&file, kHostileFingerprint);
  hostile::Put(&file, count);
  if (!payload.empty()) {
    payload.append(64, '\0');
    hostile::Put(&file, static_cast<std::uint32_t>(payload.size()));
    file += payload;
    hostile::Put(&file, Fnv1a(payload));
  }
  return file;
}

[[noreturn]] void LoadStoreAndExit(const std::string& path,
                                   const std::string& expected) {
  if (!hostile::CapAddressSpace()) std::_Exit(2);
  const auto loaded = LoadFeatureBank(path, kHostileFingerprint);
  const Status& status = loaded.status();
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::_Exit(status.code() == StatusCode::kIoError &&
                     status.message().find(expected) != std::string::npos
                 ? 0
                 : 1);
}

TEST(FeatureStoreTest, HostileCountsAreRejectedBeforeAllocating) {
  if (SNOR_HOSTILE_INPUT_UNSUPPORTED) {
    GTEST_SKIP() << "address-space cap is unavailable under sanitizers";
  }
  const struct {
    const char* name;
    std::string bytes;
    const char* expected;
  } cases[] = {
      {"10M records in a 24-byte file", StoreFile(10'000'000u, ""),
       "record(s)"},
      {"256 bins per channel, 64 payload bytes",
       StoreFile(1, PayloadHead(256)), "histogram"},
  };
  const std::string path = testing::TempDir() + "/snor_store_hostile.fst";
  for (const auto& c : cases) {
    hostile::WriteFile(path, c.bytes);
    EXPECT_EXIT(LoadStoreAndExit(path, c.expected),
                ::testing::ExitedWithCode(0), "")
        << c.name;
  }
}

// ------------------------------------------------------ crash-safe save --

bool SameFeatures(const std::vector<ImageFeatures>& got,
                  const std::vector<ImageFeatures>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const ImageFeatures& g = got[i];
    const ImageFeatures& w = want[i];
    if (g.label != w.label || g.model_id != w.model_id || g.hu != w.hu ||
        g.histogram.bins() != w.histogram.bins()) {
      return false;
    }
  }
  return true;
}

std::vector<ImageFeatures> MakeBank(int n, std::uint64_t seed) {
  std::vector<ImageFeatures> bank;
  for (int i = 0; i < n; ++i) {
    bank.push_back(MakeFeatures(i % kNumClasses, i, true, seed + i));
  }
  return bank;
}

/// Number of directory entries whose name starts with `prefix`.
int CountEntries(const std::string& dir, const std::string& prefix) {
  int n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

TEST(FeatureStoreTest, ConcurrentSavesToOnePathNeverTearTheFile) {
  const std::string path = testing::TempDir() + "/snor_store_race.fst";
  std::remove(path.c_str());
  const std::vector<ImageFeatures> galleries[2] = {MakeBank(2, 11),
                                                MakeBank(6, 20)};
  std::atomic<bool> reading{false};
  std::atomic<int> writers_done{0};
  std::atomic<int> failed_saves{0};
  auto writer = [&](int w) {
    while (!reading.load()) std::this_thread::yield();
    for (int i = 0; i < 40; ++i) {
      if (!SaveFeatureBank(path, 5, galleries[w]).ok()) ++failed_saves;
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
    auto loaded = LoadFeatureBank(path, 5);
    // Before the first save lands there is no file to open.
    if (loads == 0 && !loaded.ok() &&
        loaded.status().message().find("cannot open") != std::string::npos) {
      continue;
    }
    ++loads;
    if (!loaded.ok() || !(SameFeatures(*loaded, galleries[0]) ||
                          SameFeatures(*loaded, galleries[1]))) {
      ++bad_loads;
    }
  }
  t0.join();
  t1.join();
  EXPECT_EQ(failed_saves.load(), 0);
  EXPECT_GT(loads, 0);
  EXPECT_EQ(bad_loads, 0) << "of " << loads << " loads";
  auto last = LoadFeatureBank(path, 5);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_TRUE(SameFeatures(*last, galleries[0]) ||
              SameFeatures(*last, galleries[1]));
  EXPECT_EQ(CountEntries(testing::TempDir(), "snor_store_race.fst."), 0)
      << "a temporary file was left behind";
}

/// Saves a gallery too large for the file-size limit over `path`, then
/// checks that the save failed and `path` still loads as `old_bank`.
[[noreturn]] void SaveOverLimitAndExit(
    const std::string& path, const std::vector<ImageFeatures>& old_bank) {
  std::signal(SIGXFSZ, SIG_IGN);  // Over-limit writes fail with EFBIG.
  const rlimit rl{64 * 1024, 64 * 1024};
  if (::setrlimit(RLIMIT_FSIZE, &rl) != 0) std::_Exit(2);
  const Status saved = SaveFeatureBank(path, 5, MakeBank(30, 40));
  auto loaded = LoadFeatureBank(path, 5);
  const bool kept =
      !saved.ok() && loaded.ok() && SameFeatures(*loaded, old_bank);
  std::fprintf(stderr, "save: %s, load: %s\n", saved.ToString().c_str(),
               loaded.status().ToString().c_str());
  std::_Exit(kept ? 0 : 1);
}

TEST(FeatureStoreTest, FailedSaveKeepsTheOldFile) {
  const std::string dir = testing::TempDir() + "/snor_store_keep";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  const std::string path = dir + "/store.fst";
  const std::vector<ImageFeatures> old_bank = MakeBank(1, 31);
  ASSERT_TRUE(SaveFeatureBank(path, 5, old_bank).ok());
  EXPECT_EXIT(SaveOverLimitAndExit(path, old_bank),
              ::testing::ExitedWithCode(0), "");
  EXPECT_EQ(CountEntries(dir, ""), 1) << "a temporary file was left behind";
}

}  // namespace
}  // namespace snor::serve
