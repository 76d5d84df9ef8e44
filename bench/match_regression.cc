// Match-regression gate: the CI tripwire behind `--match-mode`.
//
// Three contracts are enforced, and the run exits non-zero when any is
// violated:
//
//   1. Identity — for every Table-2 approach, the exact-mode batch
//      engine must produce bit-identical predictions to the cold
//      per-query classifier on two synthetic galleries: one with every
//      histogram bin occupied, and one as sparse as rendered views, so
//      the sparse Hellinger kernel path is exercised too.
//   2. Recall — the ANN path (candidate retrieval + exact rerank) must
//      agree with the exact path on at least `min_ann_recall_at_1` of
//      queries at the default candidate budget.
//   3. Speed — exact-mode per-query `match_s` must stay within
//      `max_exact_vs_cold_ratio` of the cold loop (the SoA kernels must
//      never regress below the path they replaced), and the ANN path
//      must be at least `min_ann_speedup` times faster than exact.
//
// The hybrid exact and ANN `match_s` and recall@1 on the sparse gallery
// are reported too (`sparse_*` keys), as telemetry only: the bands above
// are measured on the dense gallery.
//
// The bands live in a checked-in baseline file (`--baseline PATH`, one
// `key value` pair per line, `#` comments) so tightening the gate is a
// reviewed change, not a code edit. Wall-clock bands are relative
// (ratios between back-to-back runs on the same host), never absolute,
// so the gate is host-independent. Measurements take the best of
// several repetitions to shed scheduler noise. Results are emitted into
// BENCH_match_regression.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "serve/batch_engine.h"
#include "util/rng.h"

namespace snor::serve {
namespace {

/// Relative performance/recall bands, loaded from the baseline file.
struct GateBands {
  double max_exact_vs_cold_ratio = 1.5;
  double min_ann_speedup = 3.0;
  double min_ann_recall_at_1 = 0.99;
};

bool LoadBands(const std::string& path, GateBands* bands) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return false;
  char key[128];
  double value = 0.0;
  char line[256];
  while (std::fgets(line, sizeof(line), in) != nullptr) {
    if (line[0] == '#' || line[0] == '\n') continue;
    if (std::sscanf(line, "%127s %lf", key, &value) != 2) continue;
    if (std::strcmp(key, "max_exact_vs_cold_ratio") == 0) {
      bands->max_exact_vs_cold_ratio = value;
    } else if (std::strcmp(key, "min_ann_speedup") == 0) {
      bands->min_ann_speedup = value;
    } else if (std::strcmp(key, "min_ann_recall_at_1") == 0) {
      bands->min_ann_recall_at_1 = value;
    }
  }
  std::fclose(in);
  return true;
}

/// Synthetic feature bank shaped like SNS1 (8-bin histograms, valid Hu
/// moments) — same generator as the serving benches. With `occupied` > 0
/// each histogram keeps at most that many nonzero bins, the occupancy of
/// rendered views (a median 21 of 512 bins).
std::vector<ImageFeatures> SyntheticBank(std::size_t n, std::uint64_t seed,
                                         std::size_t occupied = 0) {
  Rng rng(seed);
  std::vector<ImageFeatures> bank(n);
  for (std::size_t i = 0; i < n; ++i) {
    ImageFeatures& f = bank[i];
    f.label = ClassFromIndex(static_cast<int>(i % kNumClasses));
    f.model_id = static_cast<int>(i / kNumClasses);
    f.valid = true;
    for (double& h : f.hu) h = rng.Uniform(-1.0, 1.0);
    f.histogram = ColorHistogram(8);
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
  return bank;
}

std::vector<const ImageFeatures*> Pointers(
    const std::vector<ImageFeatures>& features) {
  std::vector<const ImageFeatures*> out;
  out.reserve(features.size());
  for (const ImageFeatures& f : features) out.push_back(&f);
  return out;
}

/// Share of `ann` labels equal to the `exact` labels (recall@1).
double Agreement(const std::vector<ObjectClass>& ann,
                 const std::vector<ObjectClass>& exact) {
  std::size_t agree = 0;
  for (std::size_t i = 0; i < ann.size(); ++i) {
    if (ann[i] == exact[i]) ++agree;
  }
  return ann.empty() ? 0.0
                     : static_cast<double>(agree) /
                           static_cast<double>(ann.size());
}

int Fail(const char* what) {
  std::fprintf(stderr, "match_regression: GATE FAILURE: %s\n", what);
  return 1;
}

/// Best-of-`reps` per-query seconds for one classify function.
template <typename Fn>
double BestMatchSeconds(Fn&& classify, std::size_t queries, int reps) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    classify();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    best = std::min(best, s / static_cast<double>(queries));
  }
  return best;
}

int Run(const std::string& baseline_path) {
  GateBands bands;
  if (!LoadBands(baseline_path, &bands)) {
    std::fprintf(stderr, "match_regression: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 2;
  }
  std::printf("bands (%s): exact<=%.2fx cold | ann>=%.2fx exact | "
              "recall@1>=%.3f\n",
              baseline_path.c_str(), bands.max_exact_vs_cold_ratio,
              bands.min_ann_speedup, bands.min_ann_recall_at_1);

  const bool quick = snor::bench::QuickMode();
  const std::size_t gallery_size = quick ? 1024 : 2048;
  const std::size_t query_count = quick ? 128 : 512;
  const int reps = quick ? 3 : 7;
  const std::uint64_t seed = 2019;

  const std::vector<ImageFeatures> gallery = SyntheticBank(gallery_size, 2);
  const std::vector<ImageFeatures> queries = SyntheticBank(query_count, 3);
  const std::vector<const ImageFeatures*> batch = Pointers(queries);

  // ---- Contract 1: exact mode is bit-identical to the cold classifier
  // for every Table-2 approach, on dense and on sparse histograms.
  constexpr std::size_t kSparseOccupied = 24;
  const std::vector<ImageFeatures> sparse_gallery =
      SyntheticBank(gallery_size, 4, kSparseOccupied);
  const std::vector<ImageFeatures> sparse_queries =
      SyntheticBank(query_count, 5, kSparseOccupied);
  std::size_t identity_checked = 0;
  for (const bool sparse : {false, true}) {
    const std::vector<ImageFeatures>& g = sparse ? sparse_gallery : gallery;
    const std::vector<ImageFeatures>& qs = sparse ? sparse_queries : queries;
    const std::vector<const ImageFeatures*> q_batch = Pointers(qs);
    for (const ApproachSpec& spec : Table2Approaches()) {
      auto cold = MakeClassifier(spec, g, seed);
      if (!cold.ok()) return Fail("cold classifier construction failed");
      const std::vector<ObjectClass> expected = cold.value()->ClassifyAll(qs);

      BatchEngineOptions options;
      options.num_shards = 3;
      auto engine = BatchEngine::Create(spec, g, options, seed);
      if (!engine.ok()) return Fail("exact engine construction failed");
      const std::vector<ObjectClass> actual =
          engine.value()->ClassifyBatch(q_batch);
      if (actual != expected) {
        std::fprintf(stderr, "match_regression: %s diverges from cold (%s)\n",
                     spec.DisplayName().c_str(), sparse ? "sparse" : "dense");
        return Fail("exact mode is not bit-identical to the cold classifier");
      }
      ++identity_checked;
    }
  }
  std::printf("identity: %zu approach runs bit-identical to cold (dense and "
              "sparse galleries)\n",
              identity_checked);

  // ---- Contracts 2 and 3 use the hybrid approach (both modalities, the
  // worst case for the candidate index).
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kHybrid;
  spec.alpha = 0.3;
  spec.beta = 0.7;

  auto cold = MakeClassifier(spec, gallery, seed);
  BatchEngineOptions exact_options;
  auto exact = BatchEngine::Create(spec, gallery, exact_options, seed);
  BatchEngineOptions ann_options;
  ann_options.match_mode = MatchMode::kAnn;
  auto ann = BatchEngine::Create(spec, gallery, ann_options, seed);
  if (!cold.ok() || !exact.ok() || !ann.ok()) {
    return Fail("hybrid engine construction failed");
  }

  const double ann_recall_at_1 = Agreement(ann.value()->ClassifyBatch(batch),
                                           exact.value()->ClassifyBatch(batch));

  const double cold_s = BestMatchSeconds(
      [&] { (void)cold.value()->ClassifyAll(queries); }, query_count, reps);
  const double exact_s = BestMatchSeconds(
      [&] { (void)exact.value()->ClassifyBatch(batch); }, query_count, reps);
  const double ann_s = BestMatchSeconds(
      [&] { (void)ann.value()->ClassifyBatch(batch); }, query_count, reps);
  const double exact_vs_cold = cold_s > 0.0 ? exact_s / cold_s : 0.0;
  const double ann_speedup = ann_s > 0.0 ? exact_s / ann_s : 0.0;

  std::printf("match_s: cold %.3gs | exact %.3gs (%.2fx of cold) | ann "
              "%.3gs (%.2fx speedup) | recall@1 %.4f\n",
              cold_s, exact_s, exact_vs_cold, ann_s, ann_speedup,
              ann_recall_at_1);

  // ---- Telemetry: the same exact-vs-ANN comparison on rendered-occupancy
  // histograms, where the ANN path's colour retrieval reads sparse rows.
  auto sparse_exact =
      BatchEngine::Create(spec, sparse_gallery, exact_options, seed);
  auto sparse_ann =
      BatchEngine::Create(spec, sparse_gallery, ann_options, seed);
  if (!sparse_exact.ok() || !sparse_ann.ok()) {
    return Fail("sparse hybrid engine construction failed");
  }
  const std::vector<const ImageFeatures*> sparse_batch =
      Pointers(sparse_queries);
  const double sparse_ann_recall_at_1 =
      Agreement(sparse_ann.value()->ClassifyBatch(sparse_batch),
                sparse_exact.value()->ClassifyBatch(sparse_batch));
  const double sparse_exact_s = BestMatchSeconds(
      [&] { (void)sparse_exact.value()->ClassifyBatch(sparse_batch); },
      query_count, reps);
  const double sparse_ann_s = BestMatchSeconds(
      [&] { (void)sparse_ann.value()->ClassifyBatch(sparse_batch); },
      query_count, reps);
  const double sparse_ann_speedup =
      sparse_ann_s > 0.0 ? sparse_exact_s / sparse_ann_s : 0.0;
  std::printf("sparse match_s (telemetry): exact %.3gs | ann %.3gs (%.2fx "
              "speedup) | recall@1 %.4f\n",
              sparse_exact_s, sparse_ann_s, sparse_ann_speedup,
              sparse_ann_recall_at_1);

  snor::bench::BenchResults telemetry;
  telemetry.emplace_back("identity_approaches",
                         static_cast<double>(identity_checked));
  telemetry.emplace_back("gallery_views", static_cast<double>(gallery_size));
  telemetry.emplace_back("queries", static_cast<double>(query_count));
  telemetry.emplace_back("cold_match_s", cold_s);
  telemetry.emplace_back("exact_match_s", exact_s);
  telemetry.emplace_back("exact_vs_cold_ratio", exact_vs_cold);
  telemetry.emplace_back("ann_match_s", ann_s);
  telemetry.emplace_back("ann_speedup", ann_speedup);
  telemetry.emplace_back("ann_recall_at_1", ann_recall_at_1);
  telemetry.emplace_back("sparse_exact_match_s", sparse_exact_s);
  telemetry.emplace_back("sparse_ann_match_s", sparse_ann_s);
  telemetry.emplace_back("sparse_ann_speedup", sparse_ann_speedup);
  telemetry.emplace_back("sparse_ann_recall_at_1", sparse_ann_recall_at_1);
  telemetry.emplace_back("max_exact_vs_cold_ratio",
                         bands.max_exact_vs_cold_ratio);
  telemetry.emplace_back("min_ann_speedup", bands.min_ann_speedup);
  telemetry.emplace_back("min_ann_recall_at_1", bands.min_ann_recall_at_1);
  snor::bench::EmitBenchJson("match_regression", telemetry);

  if (ann_recall_at_1 < bands.min_ann_recall_at_1) {
    return Fail("ann recall@1 below the baseline band");
  }
  if (exact_vs_cold > bands.max_exact_vs_cold_ratio) {
    return Fail("exact match_s regressed versus the cold loop band");
  }
  if (ann_speedup < bands.min_ann_speedup) {
    return Fail("ann speedup below the baseline band");
  }
  std::printf("all match-regression gates passed\n");
  return 0;
}

}  // namespace
}  // namespace snor::serve

int main(int argc, char** argv) {
  std::string baseline = "bench/match_baseline.txt";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--baseline PATH]\n", argv[0]);
      return 2;
    }
  }
  snor::bench::PrintHeader(
      "Match regression",
      "Exact-mode identity, ANN recall, and match_s bands");
  snor::Stopwatch sw;
  const int rc = snor::serve::Run(baseline);
  snor::bench::PrintElapsed(sw);
  return rc;
}
