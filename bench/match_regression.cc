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
//      never regress below the path they replaced). The ANN path must be
//      at least `min_ann_speedup` times faster than the full-scan
//      reference: exact mode's hybrid scan before the certified scan,
//      timed through the public kernels on the engine's (query, shard)
//      ParallelFor grid, which is what "exact" meant when that band was
//      set. Exact mode, which runs the certified scan for the hybrid,
//      must be at least `min_certified_speedup` times faster than the
//      same reference, with the same labels, on the dense and the sparse
//      gallery.
//
// The ANN `match_s`, speedup and recall@1 on the sparse gallery are
// reported too (`sparse_*` keys), as telemetry only: the ANN bands are
// measured on the dense gallery.
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
#include "core/feature_bank.h"
#include "serve/batch_engine.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace snor::serve {
namespace {

/// Relative performance/recall bands, loaded from the baseline file.
struct GateBands {
  double max_exact_vs_cold_ratio = 1.5;
  double min_ann_speedup = 3.0;
  double min_ann_recall_at_1 = 0.99;
  double min_certified_speedup = 2.0;
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
    } else if (std::strcmp(key, "min_certified_speedup") == 0) {
      bands->min_certified_speedup = value;
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

/// The full-scan reference for a hybrid spec: per-view modality scores
/// of every (query, shard) task into the query's shared rows on the
/// engine's ParallelFor grid and shard split, then HybridOutcome. This is
/// exact mode's hybrid scan as it ran before the certified scan.
class FullScanReference {
 public:
  FullScanReference(const ApproachSpec& spec,
                    const std::vector<ImageFeatures>& gallery)
      : spec_(spec), bank_(PackFeatureBank(gallery)) {
    const std::size_t n = bank_.size();
    const std::size_t shards = std::max<std::size_t>(
        1, std::min<std::size_t>(
               static_cast<std::size_t>(DefaultThreadCount()), n));
    for (std::size_t s = 0, begin = 0; s < shards; ++s) {
      const std::size_t size = n / shards + (s < n % shards ? 1 : 0);
      shards_.push_back({begin, begin + size});
      begin += size;
    }
  }

  std::vector<ObjectClass> Classify(
      const std::vector<const ImageFeatures*>& queries) const {
    const std::size_t per_query = shards_.size();
    std::vector<HybridScores> rows;
    rows.reserve(queries.size());
    for (const ImageFeatures* q : queries) {
      rows.emplace_back(bank_.size(), ShapeModalityUsable(*q),
                        ColorModalityUsable(*q));
    }
    std::vector<std::pair<std::size_t, std::size_t>> counts(
        queries.size() * per_query, {0, 0});
    ParallelFor(queries.size() * per_query, [&](std::size_t task) {
      HybridScores& row = rows[task / per_query];
      if (!row.use_shape && !row.use_color) return;
      const auto [begin, end] = shards_[task % per_query];
      BankHybridScoresOverRange(*queries[task / per_query], bank_, begin, end,
                                spec_.shape, spec_.color, row.use_shape,
                                row.use_color, &row.shape, &row.color,
                                &counts[task].first, &counts[task].second);
    });
    std::vector<ObjectClass> labels;
    labels.reserve(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (std::size_t t = q * per_query; t < (q + 1) * per_query; ++t) {
        rows[q].shape_usable += counts[t].first;
        rows[q].color_usable += counts[t].second;
      }
      labels.push_back(HybridOutcome(rows[q], spec_.alpha, spec_.beta,
                                     spec_.strategy, bank_,
                                     bank_.labels.front())
                           .label);
    }
    return labels;
  }

 private:
  ApproachSpec spec_;
  FeatureBank bank_;
  std::vector<std::pair<std::size_t, std::size_t>> shards_;
};

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
  std::printf("bands (%s): exact<=%.2fx cold | ann>=%.2fx full scan | "
              "recall@1>=%.3f | exact>=%.2fx full scan\n",
              baseline_path.c_str(), bands.max_exact_vs_cold_ratio,
              bands.min_ann_speedup, bands.min_ann_recall_at_1,
              bands.min_certified_speedup);

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
  const FullScanReference reference(spec, gallery);
  BatchEngineOptions exact_options;
  auto exact = BatchEngine::Create(spec, gallery, exact_options, seed);
  BatchEngineOptions ann_options;
  ann_options.match_mode = MatchMode::kAnn;
  auto ann = BatchEngine::Create(spec, gallery, ann_options, seed);
  if (!cold.ok() || !exact.ok() || !ann.ok()) {
    return Fail("hybrid engine construction failed");
  }

  const std::vector<ObjectClass> exact_labels =
      exact.value()->ClassifyBatch(batch);
  if (exact_labels != reference.Classify(batch)) {
    return Fail("exact mode diverges from the full-scan reference (dense)");
  }
  const double ann_recall_at_1 =
      Agreement(ann.value()->ClassifyBatch(batch), exact_labels);

  const double cold_s = BestMatchSeconds(
      [&] { (void)cold.value()->ClassifyAll(queries); }, query_count, reps);
  const double reference_s = BestMatchSeconds(
      [&] { (void)reference.Classify(batch); }, query_count, reps);
  const double exact_s = BestMatchSeconds(
      [&] { (void)exact.value()->ClassifyBatch(batch); }, query_count, reps);
  const double ann_s = BestMatchSeconds(
      [&] { (void)ann.value()->ClassifyBatch(batch); }, query_count, reps);
  const double exact_vs_cold = cold_s > 0.0 ? exact_s / cold_s : 0.0;
  const double ann_speedup = ann_s > 0.0 ? reference_s / ann_s : 0.0;
  const double certified_speedup = exact_s > 0.0 ? reference_s / exact_s : 0.0;

  std::printf("match_s: cold %.3gs | full scan %.3gs | exact %.3gs (%.2fx "
              "of cold, %.2fx speedup) | ann %.3gs (%.2fx speedup) | "
              "recall@1 %.4f\n",
              cold_s, reference_s, exact_s, exact_vs_cold, certified_speedup,
              ann_s, ann_speedup, ann_recall_at_1);

  // ---- The same comparisons on rendered-occupancy histograms, where the
  // colour kernels and the ANN path's colour retrieval read sparse rows.
  const FullScanReference sparse_reference(spec, sparse_gallery);
  auto sparse_exact =
      BatchEngine::Create(spec, sparse_gallery, exact_options, seed);
  auto sparse_ann =
      BatchEngine::Create(spec, sparse_gallery, ann_options, seed);
  if (!sparse_exact.ok() || !sparse_ann.ok()) {
    return Fail("sparse hybrid engine construction failed");
  }
  const std::vector<const ImageFeatures*> sparse_batch =
      Pointers(sparse_queries);
  const std::vector<ObjectClass> sparse_exact_labels =
      sparse_exact.value()->ClassifyBatch(sparse_batch);
  if (sparse_exact_labels != sparse_reference.Classify(sparse_batch)) {
    return Fail("exact mode diverges from the full-scan reference (sparse)");
  }
  const double sparse_ann_recall_at_1 = Agreement(
      sparse_ann.value()->ClassifyBatch(sparse_batch), sparse_exact_labels);
  const double sparse_reference_s = BestMatchSeconds(
      [&] { (void)sparse_reference.Classify(sparse_batch); }, query_count,
      reps);
  const double sparse_exact_s = BestMatchSeconds(
      [&] { (void)sparse_exact.value()->ClassifyBatch(sparse_batch); },
      query_count, reps);
  const double sparse_ann_s = BestMatchSeconds(
      [&] { (void)sparse_ann.value()->ClassifyBatch(sparse_batch); },
      query_count, reps);
  const double sparse_ann_speedup =
      sparse_ann_s > 0.0 ? sparse_reference_s / sparse_ann_s : 0.0;
  const double sparse_certified_speedup =
      sparse_exact_s > 0.0 ? sparse_reference_s / sparse_exact_s : 0.0;
  std::printf("sparse match_s: full scan %.3gs | exact %.3gs (%.2fx "
              "speedup) | ann %.3gs (%.2fx speedup, telemetry) | recall@1 "
              "%.4f (telemetry)\n",
              sparse_reference_s, sparse_exact_s, sparse_certified_speedup,
              sparse_ann_s, sparse_ann_speedup, sparse_ann_recall_at_1);

  snor::bench::BenchResults telemetry;
  telemetry.emplace_back("identity_approaches",
                         static_cast<double>(identity_checked));
  telemetry.emplace_back("gallery_views", static_cast<double>(gallery_size));
  telemetry.emplace_back("queries", static_cast<double>(query_count));
  telemetry.emplace_back("cold_match_s", cold_s);
  telemetry.emplace_back("reference_match_s", reference_s);
  telemetry.emplace_back("exact_match_s", exact_s);
  telemetry.emplace_back("certified_speedup", certified_speedup);
  telemetry.emplace_back("exact_vs_cold_ratio", exact_vs_cold);
  telemetry.emplace_back("ann_match_s", ann_s);
  telemetry.emplace_back("ann_speedup", ann_speedup);
  telemetry.emplace_back("ann_recall_at_1", ann_recall_at_1);
  telemetry.emplace_back("sparse_reference_match_s", sparse_reference_s);
  telemetry.emplace_back("sparse_exact_match_s", sparse_exact_s);
  telemetry.emplace_back("sparse_certified_speedup", sparse_certified_speedup);
  telemetry.emplace_back("sparse_ann_match_s", sparse_ann_s);
  telemetry.emplace_back("sparse_ann_speedup", sparse_ann_speedup);
  telemetry.emplace_back("sparse_ann_recall_at_1", sparse_ann_recall_at_1);
  telemetry.emplace_back("max_exact_vs_cold_ratio",
                         bands.max_exact_vs_cold_ratio);
  telemetry.emplace_back("min_ann_speedup", bands.min_ann_speedup);
  telemetry.emplace_back("min_ann_recall_at_1", bands.min_ann_recall_at_1);
  telemetry.emplace_back("min_certified_speedup", bands.min_certified_speedup);
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
  if (certified_speedup < bands.min_certified_speedup ||
      sparse_certified_speedup < bands.min_certified_speedup) {
    return Fail("exact-mode speedup over the full scan below the band");
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
