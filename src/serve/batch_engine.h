#ifndef SNOR_SERVE_BATCH_ENGINE_H_
#define SNOR_SERVE_BATCH_ENGINE_H_

/// \file
/// Batched, sharded gallery-matching engine.
///
/// The cold path (`ExperimentContext::RunApproach`) matches one query at a
/// time against the whole gallery on one thread. The BatchEngine shards
/// the gallery into contiguous index ranges, fans (query, shard) scoring
/// tasks of a whole query *batch* out over `ParallelFor` workers, and
/// merges the per-shard partial arg-optima sequentially in ascending shard
/// order. Because every per-view score is computed by the same code the
/// classifiers run, and the strict-< partial merge reproduces the
/// sequential first-minimum scan exactly, predictions are bit-identical
/// to the cold path for every approach and any shard/thread count.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/classifiers.h"
#include "core/evaluation.h"
#include "core/experiment.h"
#include "core/feature_bank.h"
#include "obs/trace.h"
#include "util/status.h"

namespace snor::serve {

/// \brief Gallery matching mode.
enum class MatchMode {
  /// Exact scan over the SoA feature bank. Bit-identical to the cold
  /// classifiers for every approach and any shard/thread count. The
  /// weighted-sum hybrid with Hellinger runs the certified scan
  /// (BankHybridCertifiedArgminOverRange), which scores colour only where
  /// a proven lower bound could still win; everything else, and any
  /// query the certified scan cannot answer, runs the full scan.
  kExact,
  /// ANN candidate retrieval (GalleryViewIndex) followed by an exact
  /// rerank of the top-R candidate views: sub-linear in gallery size,
  /// trading bounded recall for speed. Scores are never approximated —
  /// only the candidate set is.
  kAnn,
};

/// Parses "exact" / "ann" (as accepted by --match-mode flags).
[[nodiscard]] Result<MatchMode> ParseMatchMode(const std::string& text);
[[nodiscard]] const char* MatchModeName(MatchMode mode);

/// \brief Sharding/batching knobs for the warm matching path.
struct BatchEngineOptions {
  /// Number of contiguous gallery shards; <= 0 uses DefaultThreadCount().
  int num_shards = 0;
  /// Queries per engine batch in `RunApproachBatched`.
  int batch_size = 64;
  /// Worker threads for the (query, shard) task grid; 0 = default.
  int n_threads = 0;
  /// Exact full-bank scan vs. ANN candidates + exact rerank.
  MatchMode match_mode = MatchMode::kExact;
  /// ANN index knobs (kAnn only): top-R per modality (at least 1),
  /// shape metric.
  GalleryIndexOptions ann;
};

/// \brief Matches query batches against a sharded in-memory gallery.
///
/// Holds the gallery only as an immutable, shareable SoA bank: engines
/// over the same gallery (a service's primary and degraded engines)
/// share one pack. Shard workers read bank rows only inside their
/// ClassifyBatch scan.
class BatchEngine {
 public:
  /// Validating factory: fails like `MakeClassifier` (the shared
  /// `ValidateGallery`) on an empty or all-invalid gallery, and with
  /// InvalidArgument on a kAnn candidate budget below 1. Packs
  /// `gallery` into a bank of its own; the engine keeps no reference to
  /// `gallery`.
  [[nodiscard]] static Result<std::unique_ptr<BatchEngine>> Create(
      const ApproachSpec& spec, const std::vector<ImageFeatures>& gallery,
      const BatchEngineOptions& options = {},
      std::uint64_t baseline_seed = 2019);

  /// Same validation over an already packed bank, which the engine
  /// shares rather than copies (`bank` must be non-null).
  [[nodiscard]] static Result<std::unique_ptr<BatchEngine>> CreateFromBank(
      const ApproachSpec& spec, std::shared_ptr<const FeatureBank> bank,
      const BatchEngineOptions& options = {},
      std::uint64_t baseline_seed = 2019);

  /// Classifies one batch of queries (pointers stay owned by the caller).
  /// Predictions are index-aligned with `queries` and bit-identical to
  /// calling the cold classifier sequentially in the same order.
  [[nodiscard]] std::vector<ObjectClass> ClassifyBatch(
      const std::vector<const ImageFeatures*>& queries);

  /// Same, with per-query trace contexts (index-aligned with `queries`):
  /// each (query, shard) scan span is recorded on its query's request
  /// chain, across whatever worker thread picks the task up. Contexts
  /// carry no data into scoring, so predictions stay bit-identical.
  [[nodiscard]] std::vector<ObjectClass> ClassifyBatch(
      const std::vector<const ImageFeatures*>& queries,
      const std::vector<obs::TraceContext>& contexts);

  /// How often the engine had to degrade since construction (same
  /// semantics as `MatchingClassifier::degradation`).
  const DegradationStats& degradation() const { return degradation_; }

  std::size_t num_shards() const { return shards_.size(); }
  MatchMode match_mode() const { return options_.match_mode; }
  /// Number of ANN-mode queries that fell back to a full exact scan
  /// because no modality produced candidates.
  std::uint64_t ann_full_scans() const { return ann_full_scans_; }

 private:
  /// Contiguous gallery index range [begin, end).
  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  BatchEngine(const ApproachSpec& spec, std::shared_ptr<const FeatureBank> bank,
              const BatchEngineOptions& options, std::uint64_t baseline_seed);

  /// The gallery views one task scores: the task's shard range in exact
  /// mode; in ANN mode the index's candidates for the query, or the whole
  /// bank when retrieval proposed none. Non-empty `candidates` are
  /// scanned instead of [begin, end).
  struct ViewSet {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::vector<int> candidates;
  };
  /// Modalities a query is scored on; neither means it is not scanned.
  struct Modes {
    bool shape = false;
    bool color = false;
  };

  ObjectClass FallbackLabel() const;
  /// The usability check of every approach kind, on one query.
  Modes QueryModes(const ImageFeatures& query) const;
  /// Scan tasks per query: one per shard in exact mode, one in ANN mode.
  std::size_t TasksPerQuery() const;
  /// Views of the query's `shard`-th task. In ANN mode, sets `*full_scan`
  /// when retrieval proposed no candidate.
  ViewSet TaskViews(const ImageFeatures& query, std::size_t shard,
                    Modes modes, char* full_scan) const;

  /// The two classify paths: one outcome per query, index-aligned with
  /// `queries`. `contexts` is nullptr or index-aligned with `queries`;
  /// `full_scans` (one slot per query) records ANN full-scan fallbacks.
  /// Shape-only / colour-only: per-task partial optima, merged in task
  /// order.
  std::vector<MatchOutcome> ClassifyArgmin(
      const std::vector<const ImageFeatures*>& queries,
      const obs::TraceContext* contexts, const std::vector<Modes>& modes,
      std::vector<char>* full_scans) const;
  /// Hybrid: the certified scan for the queries it may answer (both
  /// modalities usable, nan-score disarmed, `certified_`), the full scan
  /// for the rest.
  std::vector<MatchOutcome> ClassifyHybrid(
      const std::vector<const ImageFeatures*>& queries,
      const obs::TraceContext* contexts, const std::vector<Modes>& modes,
      std::vector<char>* full_scans) const;
  /// Certified partials of queries `ids`, one task per (query, shard),
  /// merged in shard order. Sets the outcome of every query it answers,
  /// adds its exact colour evaluations to `*exact_evals`, and returns the
  /// ids no view answered (ascending), which need the full scan.
  std::vector<std::size_t> ClassifyCertified(
      const std::vector<const ImageFeatures*>& queries,
      const obs::TraceContext* contexts, const std::vector<std::size_t>& ids,
      std::vector<MatchOutcome>* outcomes, std::size_t* exact_evals) const;
  /// Full scan of queries `ids`, each with a modality to score: per-view
  /// modality scores, then HybridOutcome into `(*outcomes)[id]`.
  void ClassifyHybridFullScan(
      const std::vector<const ImageFeatures*>& queries,
      const obs::TraceContext* contexts, const std::vector<Modes>& modes,
      const std::vector<std::size_t>& ids, std::vector<char>* full_scans,
      std::vector<MatchOutcome>* outcomes) const;

  ApproachSpec spec_;
  /// The gallery; all non-baseline scoring reads bank rows. Immutable, so
  /// engines may share it across threads.
  std::shared_ptr<const FeatureBank> bank_;
  /// ANN candidate index over *bank_ (kAnn mode, non-baseline approaches
  /// only); declared after bank_, which it borrows.
  std::optional<GalleryViewIndex> index_;  // GUARDED_BY(caller)
  BatchEngineOptions options_;
  /// Exact mode with a spec the certified scan answers: weighted-sum
  /// hybrid with Hellinger, alpha and beta finite and >= 0.
  bool certified_ = false;
  std::vector<Shard> shards_;  // GUARDED_BY(caller)
  DegradationStats degradation_;  // GUARDED_BY(caller)
  std::uint64_t ann_full_scans_ = 0;  // GUARDED_BY(caller)
  /// The baseline consumes one RNG draw per classified query; delegating
  /// to the real classifier keeps the draw sequence cold-path-identical.
  std::unique_ptr<MatchingClassifier> baseline_;
};

/// \brief Knobs for the store-backed warm run.
struct WarmRunOptions {
  BatchEngineOptions engine;
  /// Seed for the random baseline (cold path uses ExperimentConfig.seed).
  std::uint64_t baseline_seed = 2019;
};

/// The warm counterpart of `ExperimentContext::RunApproach`: identical
/// skip/ledger semantics and bit-identical predictions, but the matching
/// loop runs in batches on the sharded engine. `inputs` and `gallery`
/// would typically come from a FeatureStore rather than fresh extraction.
[[nodiscard]] Result<EvalReport> RunApproachBatched(
    const ApproachSpec& spec, const std::vector<ImageFeatures>& inputs,
    const std::vector<ImageFeatures>& gallery,
    const WarmRunOptions& options = {});

}  // namespace snor::serve

#endif  // SNOR_SERVE_BATCH_ENGINE_H_
