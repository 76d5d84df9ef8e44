// google-benchmark micro-benchmarks of the hot kernels that bound the
// on-board (mobile robot) runtime the paper's motivation hinges on.

#include <benchmark/benchmark.h>

#include "core/classifiers.h"
#include "core/feature_bank.h"
#include "core/preprocess.h"
#include "data/renderer.h"
#include "features/fast.h"
#include "img/color.h"
#include "features/histogram.h"
#include "features/hog.h"
#include "features/kmeans.h"
#include "features/matcher.h"
#include "features/orb.h"
#include "features/sift.h"
#include "features/surf.h"
#include "geometry/fourier.h"
#include "geometry/moments.h"
#include "nn/layers.h"
#include "nn/xcorr.h"
#include "util/rng.h"

namespace snor {
namespace {

ImageU8 BenchView(int size) {
  RenderOptions ro;
  ro.canvas_size = size;
  ro.white_background = false;
  ro.noise_stddev = 6.0;
  ro.nuisance_seed = 1;
  return RenderObjectView(ObjectClass::kChair, 0, ro);
}

void BM_Preprocess(benchmark::State& state) {
  const ImageU8 img = BenchView(static_cast<int>(state.range(0)));
  PreprocessOptions opts;
  opts.white_background = false;
  for (auto _ : state) {
    auto result = Preprocess(img, opts);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Preprocess)->Arg(64)->Arg(96)->Arg(128);

void BM_HuMoments(benchmark::State& state) {
  const ImageU8 img = BenchView(96);
  PreprocessOptions opts;
  opts.white_background = false;
  const Contour contour = Preprocess(img, opts)->contour;
  for (auto _ : state) {
    auto hu = ComputeHuMoments(ContourMoments(contour));
    benchmark::DoNotOptimize(hu);
  }
}
BENCHMARK(BM_HuMoments);

void BM_MatchShapes(benchmark::State& state) {
  const ImageU8 a = BenchView(96);
  RenderOptions ro;
  ro.canvas_size = 96;
  const ImageU8 b = RenderObjectView(ObjectClass::kSofa, 1, ro);
  PreprocessOptions po;
  po.white_background = false;
  const HuMoments ha = Preprocess(a, po)->hu;
  const HuMoments hb = Preprocess(b, PreprocessOptions{})->hu;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchShapes(ha, hb, ShapeMatchMethod::kI3));
  }
}
BENCHMARK(BM_MatchShapes);

void BM_HistogramCompute(benchmark::State& state) {
  const ImageU8 img = BenchView(96);
  const int bins = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto h = ColorHistogram::Compute(img, nullptr, bins);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_HistogramCompute)->Arg(4)->Arg(8)->Arg(16);

void BM_HistogramCompare(benchmark::State& state) {
  const ImageU8 a = BenchView(96);
  RenderOptions ro;
  ro.canvas_size = 96;
  const ImageU8 b = RenderObjectView(ObjectClass::kBottle, 2, ro);
  auto ha = ColorHistogram::Compute(a);
  auto hb = ColorHistogram::Compute(b);
  ha.NormalizeL1();
  hb.NormalizeL1();
  const auto method = static_cast<HistCompareMethod>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompareHistograms(ha, hb, method));
  }
}
BENCHMARK(BM_HistogramCompare)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_Fast(benchmark::State& state) {
  const ImageU8 img = RgbToGray(BenchView(96));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DetectFast(img));
  }
}
BENCHMARK(BM_Fast);

void BM_Orb(benchmark::State& state) {
  const ImageU8 img = BenchView(96);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractOrb(img));
  }
}
BENCHMARK(BM_Orb);

void BM_Sift(benchmark::State& state) {
  const ImageU8 img = BenchView(96);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractSift(img));
  }
}
BENCHMARK(BM_Sift);

void BM_Surf(benchmark::State& state) {
  const ImageU8 img = BenchView(96);
  SurfOptions opts;
  opts.hessian_threshold = 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractSurf(img, opts));
  }
}
BENCHMARK(BM_Surf);

std::vector<FloatDescriptor> RandomDescriptors(int n, int dim,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FloatDescriptor> out(static_cast<std::size_t>(n));
  for (auto& d : out) {
    d.resize(static_cast<std::size_t>(dim));
    for (auto& v : d) v = static_cast<float>(rng.Normal());
  }
  return out;
}

void BM_BruteForceKnn(benchmark::State& state) {
  const auto query = RandomDescriptors(100, 128, 1);
  const auto train =
      RandomDescriptors(static_cast<int>(state.range(0)), 128, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KnnMatchBruteForce(query, train, 2));
  }
}
BENCHMARK(BM_BruteForceKnn)->Arg(100)->Arg(500);

// ------------------------------------------------ SoA bank kernels --------
// The bank kernels' full scan and the ANN candidate + exact-rerank path
// over the same gallery. `match_s` is seconds of matching per query; the
// ANN rows are the sub-linear matching win.

/// Random views; with `occupied` > 0 each histogram keeps at most that
/// many nonzero bins (rendered views occupy a median 21 of 512).
std::vector<ImageFeatures> RandomGallery(std::size_t n, std::uint64_t seed,
                                         std::size_t occupied = 0) {
  Rng rng(seed);
  std::vector<ImageFeatures> gallery(n);
  for (std::size_t i = 0; i < n; ++i) {
    ImageFeatures& f = gallery[i];
    f.label = ClassFromIndex(static_cast<int>(i % kNumClasses));
    f.model_id = static_cast<int>(i / kNumClasses);
    f.valid = true;
    for (double& h : f.hu) h = rng.Uniform(-1.0, 1.0);
    std::vector<double>& bins = f.histogram.bins();
    if (occupied == 0) {
      for (double& bin : bins) bin = rng.UniformDouble();
    } else {
      for (std::size_t k = 0; k < occupied; ++k) {
        bins[rng.Index(bins.size())] = rng.UniformDouble();
      }
    }
    f.histogram.NormalizeL1();
  }
  return gallery;
}

void SetMatchSeconds(benchmark::State& state, std::size_t queries_per_iter) {
  state.counters["match_s"] = benchmark::Counter(
      static_cast<double>(queries_per_iter),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_BankShapeArgmin(benchmark::State& state) {
  const auto gallery = RandomGallery(
      static_cast<std::size_t>(state.range(0)), 11);
  const auto queries = RandomGallery(16, 12);
  const FeatureBank bank = PackFeatureBank(gallery);
  for (auto _ : state) {
    for (const ImageFeatures& q : queries) {
      benchmark::DoNotOptimize(BankShapeArgminOverRange(
          q, bank, 0, bank.size(), ShapeMatchMethod::kI3));
    }
  }
  SetMatchSeconds(state, queries.size());
}
BENCHMARK(BM_BankShapeArgmin)->Arg(1024)->Arg(4096);

// Args: gallery views, occupied bins per histogram (0 = all 512). The
// sparse rows are what the Hellinger kernel's nonzero-bin scan is for.
void BM_BankColorArgbest(benchmark::State& state) {
  const auto occupied = static_cast<std::size_t>(state.range(1));
  const auto gallery = RandomGallery(
      static_cast<std::size_t>(state.range(0)), 11, occupied);
  const auto queries = RandomGallery(16, 12, occupied);
  const FeatureBank bank = PackFeatureBank(gallery);
  for (auto _ : state) {
    for (const ImageFeatures& q : queries) {
      benchmark::DoNotOptimize(BankColorArgbestOverRange(
          q, bank, 0, bank.size(), HistCompareMethod::kHellinger));
    }
  }
  SetMatchSeconds(state, queries.size());
}
BENCHMARK(BM_BankColorArgbest)
    ->Args({1024, 0})
    ->Args({4096, 0})
    ->Args({1024, 24})
    ->Args({4096, 24});

// Args: gallery views, occupied bins per histogram (0 = all 512). Colour
// retrieval reads each row's nonzero bins, so the two occupancies time its
// full-row loop and its sparse-row loop.
void BM_AnnCandidateRerank(benchmark::State& state) {
  const auto occupied = static_cast<std::size_t>(state.range(1));
  const auto gallery = RandomGallery(
      static_cast<std::size_t>(state.range(0)), 11, occupied);
  const auto queries = RandomGallery(16, 12, occupied);
  const FeatureBank bank = PackFeatureBank(gallery);
  GalleryIndexOptions opts;
  opts.candidates = 48;
  const GalleryViewIndex index = GalleryViewIndex::Build(bank, opts);
  std::vector<double> shape_scores(bank.size(), kUnusableScore);
  std::vector<double> color_scores(bank.size(), kUnusableScore);
  for (auto _ : state) {
    for (const ImageFeatures& q : queries) {
      const std::vector<int> cands = index.Candidates(q, true, true);
      std::size_t shape_usable = 0;
      std::size_t color_usable = 0;
      BankHybridScoresOverCandidates(
          q, bank, cands, ShapeMatchMethod::kI3, HistCompareMethod::kHellinger,
          true, true, &shape_scores, &color_scores, &shape_usable,
          &color_usable);
      benchmark::DoNotOptimize(shape_usable + color_usable);
    }
  }
  SetMatchSeconds(state, queries.size());
}
BENCHMARK(BM_AnnCandidateRerank)
    ->Args({1024, 0})
    ->Args({4096, 0})
    ->Args({1024, 24})
    ->Args({4096, 24});

void BM_Conv2DForward(benchmark::State& state) {
  Rng rng(3);
  Conv2D conv(8, 12, 5, 1, 2, rng);
  Tensor input({4, 8, 16, 16});
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(rng.Normal());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(input, false));
  }
}
BENCHMARK(BM_Conv2DForward);

void BM_Hog(benchmark::State& state) {
  const ImageU8 img = BenchView(96);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeHog(img));
  }
}
BENCHMARK(BM_Hog);

void BM_FourierDescriptors(benchmark::State& state) {
  const ImageU8 img = BenchView(96);
  PreprocessOptions opts;
  opts.white_background = false;
  const Contour contour = Preprocess(img, opts)->contour;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FourierDescriptors(contour, 16));
  }
}
BENCHMARK(BM_FourierDescriptors);

void BM_RgbToHsv(benchmark::State& state) {
  const ImageU8 img = BenchView(96);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RgbToHsv(img));
  }
}
BENCHMARK(BM_RgbToHsv);

void BM_KMeansVocabulary(benchmark::State& state) {
  Rng rng(9);
  const auto points = RandomDescriptors(400, 64, 5);
  KMeansOptions opts;
  opts.k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(KMeansCluster(points, opts));
  }
}
BENCHMARK(BM_KMeansVocabulary)->Arg(16)->Arg(64);

void BM_NormXCorrForward(benchmark::State& state) {
  NormXCorrLayer xcorr(3, 2, 2);
  Rng rng(4);
  Tensor a({1, 12, 8, 8});
  Tensor b({1, 12, 8, 8});
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.Normal());
    b[i] = static_cast<float>(rng.Normal());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(xcorr.Forward(a, b));
  }
}
BENCHMARK(BM_NormXCorrForward);

}  // namespace
}  // namespace snor

BENCHMARK_MAIN();
