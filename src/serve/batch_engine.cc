#include "serve/batch_engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace snor::serve {

Result<MatchMode> ParseMatchMode(const std::string& text) {
  if (text == "exact") return MatchMode::kExact;
  if (text == "ann") return MatchMode::kAnn;
  return Status::InvalidArgument("unknown match mode '" + text +
                                 "' (expected 'exact' or 'ann')");
}

const char* MatchModeName(MatchMode mode) {
  return mode == MatchMode::kAnn ? "ann" : "exact";
}

Result<std::unique_ptr<BatchEngine>> BatchEngine::Create(
    const ApproachSpec& spec, const std::vector<ImageFeatures>& gallery,
    const BatchEngineOptions& options, std::uint64_t baseline_seed) {
  return CreateFromBank(
      spec, std::make_shared<const FeatureBank>(PackFeatureBank(gallery)),
      options, baseline_seed);
}

Result<std::unique_ptr<BatchEngine>> BatchEngine::CreateFromBank(
    const ApproachSpec& spec, std::shared_ptr<const FeatureBank> bank,
    const BatchEngineOptions& options, std::uint64_t baseline_seed) {
  SNOR_CHECK(bank != nullptr);
  SNOR_RETURN_NOT_OK(
      ValidateGallery(spec, *bank, "shard " + spec.DisplayName()));
  if (options.match_mode == MatchMode::kAnn && options.ann.candidates < 1) {
    // A budget of zero proposes no candidates, so every query would
    // silently fall back to a full scan.
    return Status::InvalidArgument(
        "ann candidate budget must be at least 1, got " +
        std::to_string(options.ann.candidates));
  }
  // NOLINTNEXTLINE(raw-new-delete): private ctor, immediately owned.
  return std::unique_ptr<BatchEngine>(new BatchEngine(
      spec, std::move(bank), options, baseline_seed));
}

BatchEngine::BatchEngine(const ApproachSpec& spec,
                         std::shared_ptr<const FeatureBank> bank,
                         const BatchEngineOptions& options,
                         std::uint64_t baseline_seed)
    : spec_(spec), bank_(std::move(bank)), options_(options) {
  const std::size_t n = bank_->size();
  int shards = options.num_shards > 0 ? options.num_shards
                                      : DefaultThreadCount();
  shards = std::max(1, std::min<int>(shards, static_cast<int>(n)));
  const std::size_t per_shard = n / static_cast<std::size_t>(shards);
  const std::size_t remainder = n % static_cast<std::size_t>(shards);
  std::size_t begin = 0;
  for (int s = 0; s < shards; ++s) {
    const std::size_t size =
        per_shard + (static_cast<std::size_t>(s) < remainder ? 1 : 0);
    shards_.push_back({begin, begin + size});
    begin += size;
  }
  SNOR_CHECK_EQ(begin, n);
  obs::MetricsRegistry::Global()
      .gauge("serve.engine.shards")
      .Set(static_cast<double>(shards_.size()));
  obs::MetricsRegistry::Global()
      .gauge("serve.engine.match_mode")
      .Set(options_.match_mode == MatchMode::kAnn ? 1.0 : 0.0);
  if (spec_.kind == ApproachSpec::Kind::kBaseline) {
    // The baseline never reads the gallery: it draws one label per query.
    baseline_ = std::make_unique<RandomBaselineClassifier>(
        std::vector<ImageFeatures>{}, baseline_seed);
    return;  // No index needed either.
  }
  if (options_.match_mode == MatchMode::kAnn) {
    // The prefilter must rank with the approach's own shape metric so
    // its top-R equals the exact scan's top-R.
    GalleryIndexOptions index_options = options_.ann;
    index_options.shape_method = spec_.shape;
    index_ = GalleryViewIndex::Build(*bank_, index_options);
  }
}

ObjectClass BatchEngine::FallbackLabel() const {
  // Mirrors MatchingClassifier::FallbackLabel (the bank is never empty
  // here; Create rejects that).
  return bank_->labels.front();
}

std::vector<ObjectClass> BatchEngine::ClassifyBatch(
    const std::vector<const ImageFeatures*>& queries) {
  return ClassifyBatch(queries, {});
}

std::vector<ObjectClass> BatchEngine::ClassifyBatch(
    const std::vector<const ImageFeatures*>& queries,
    const std::vector<obs::TraceContext>& contexts) {
  SNOR_TRACE_SPAN("serve.engine.batch");
  const obs::TraceContext* context_array =
      contexts.size() == queries.size() && !contexts.empty() ? contexts.data()
                                                             : nullptr;
  static obs::Counter& batches =
      obs::MetricsRegistry::Global().counter("serve.engine.batches");
  static obs::Counter& query_count =
      obs::MetricsRegistry::Global().counter("serve.engine.queries");
  static obs::Histogram& batch_latency_us =
      obs::MetricsRegistry::Global().histogram(
          "serve.engine.batch_latency_us");
  static obs::Counter& full_scan_counter =
      obs::MetricsRegistry::Global().counter("serve.engine.ann_full_scans");
  const obs::ScopedLatencyUs latency(batch_latency_us);
  batches.Increment();
  query_count.Increment(queries.size());
  if (queries.empty()) return {};

  if (baseline_ != nullptr) {
    // One RNG draw per query, in query order: the draw sequence (and so
    // every prediction) matches the cold classifier exactly.
    std::vector<ObjectClass> predictions;
    predictions.reserve(queries.size());
    for (const ImageFeatures* q : queries) {
      predictions.push_back(baseline_->Classify(*q));
    }
    degradation_ = baseline_->degradation();
    return predictions;
  }

  const std::size_t nq = queries.size();
  std::vector<Modes> modes(nq);
  for (std::size_t q = 0; q < nq; ++q) modes[q] = QueryModes(*queries[q]);
  std::vector<char> full_scans(nq, 0);  // GUARDED_BY(per_worker_slot)
  const std::vector<MatchOutcome> outcomes =
      spec_.kind == ApproachSpec::Kind::kHybrid
          ? ClassifyHybrid(queries, context_array, modes, &full_scans)
          : ClassifyArgmin(queries, context_array, modes, &full_scans);

  // The shared tallies, applied sequentially after the workers joined.
  std::vector<ObjectClass> predictions;
  predictions.reserve(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    degradation_.Record(outcomes[q].degradation);
    if (full_scans[q] != 0) {
      ++ann_full_scans_;
      full_scan_counter.Increment();
    }
    predictions.push_back(outcomes[q].label);
  }
  return predictions;
}

BatchEngine::Modes BatchEngine::QueryModes(const ImageFeatures& query) const {
  switch (spec_.kind) {
    case ApproachSpec::Kind::kShape:
      return {ShapeModalityUsable(query), false};
    case ApproachSpec::Kind::kColor:
      return {false, query.valid};
    case ApproachSpec::Kind::kHybrid:
      return {ShapeModalityUsable(query), ColorModalityUsable(query)};
    case ApproachSpec::Kind::kBaseline:
      break;
  }
  return {};
}

std::size_t BatchEngine::TasksPerQuery() const {
  // ANN retrieval is sub-linear, so sharding the small rerank scan would
  // cost more than it saves.
  return index_.has_value() ? 1 : shards_.size();
}

BatchEngine::ViewSet BatchEngine::TaskViews(const ImageFeatures& query,
                                            std::size_t shard, Modes modes,
                                            char* full_scan) const {
  if (!index_.has_value()) {
    return {shards_[shard].begin, shards_[shard].end, {}};
  }
  ViewSet views{0, bank_->size(),
                index_->Candidates(query, modes.shape, modes.color)};
  // No modality proposed candidates: degrade to a full exact scan rather
  // than answering from nothing.
  *full_scan = views.candidates.empty() ? 1 : 0;
  return views;
}

namespace {

/// One scan task's trace span, recorded on the query's request chain when
/// the batch carries trace contexts.
class TaskSpan {
 public:
  TaskSpan(const obs::TraceContext* contexts, std::size_t q, bool ann) {
    if (contexts != nullptr) scope_.emplace(contexts[q]);
    span_.emplace(ann ? "serve.engine.ann_rerank" : "serve.engine.shard_scan");
  }

 private:
  std::optional<obs::ScopedTraceContext> scope_;
  std::optional<obs::ScopedSpan> span_;
};

}  // namespace

std::vector<MatchOutcome> BatchEngine::ClassifyArgmin(
    const std::vector<const ImageFeatures*>& queries,
    const obs::TraceContext* contexts, const std::vector<Modes>& modes,
    std::vector<char>* full_scans) const {
  const std::size_t nq = queries.size();
  const std::size_t per_query = TasksPerQuery();
  const bool shape = spec_.kind == ApproachSpec::Kind::kShape;

  // One partial optimum per task; every worker writes only its own cell.
  std::vector<PartialBest> partials(nq * per_query);  // GUARDED_BY(per_worker_slot)
  ParallelFor(
      nq * per_query,
      [&](std::size_t task) {
        const std::size_t q = task / per_query;
        if (!modes[q].shape && !modes[q].color) return;
        const TaskSpan span(contexts, q, index_.has_value());
        const ImageFeatures& query = *queries[q];
        const ViewSet views = TaskViews(query, task % per_query, modes[q],
                                        &(*full_scans)[q]);
        if (!views.candidates.empty()) {
          partials[task] =
              shape ? BankShapeArgminOverCandidates(query, *bank_,
                                                    views.candidates,
                                                    spec_.shape)
                    : BankColorArgbestOverCandidates(query, *bank_,
                                                     views.candidates,
                                                     spec_.color);
        } else {
          partials[task] =
              shape ? BankShapeArgminOverRange(query, *bank_, views.begin,
                                               views.end, spec_.shape)
                    : BankColorArgbestOverRange(query, *bank_, views.begin,
                                                views.end, spec_.color);
        }
      },
      options_.n_threads);

  // Sequential merge in ascending task (shard) order: the strict
  // comparison keeps the lowest-index optimum, exactly like one scan.
  const bool maximize = !shape && IsSimilarityMetric(spec_.color);
  std::vector<MatchOutcome> outcomes;
  outcomes.reserve(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    PartialBest best;
    for (std::size_t t = q * per_query; t < (q + 1) * per_query; ++t) {
      const PartialBest& p = partials[t];
      if (p.found && (!best.found || (maximize ? p.score > best.score
                                               : p.score < best.score))) {
        best = p;
      }
    }
    outcomes.push_back(ArgminOutcome(best, FallbackLabel()));
  }
  return outcomes;
}

std::vector<MatchOutcome> BatchEngine::ClassifyHybrid(
    const std::vector<const ImageFeatures*>& queries,
    const obs::TraceContext* contexts, const std::vector<Modes>& modes,
    std::vector<char>* full_scans) const {
  const std::size_t nq = queries.size();
  const std::size_t per_query = TasksPerQuery();
  const std::size_t n = bank_->size();
  const auto score = [&](const ImageFeatures& query, const ViewSet& views,
                         HybridScores* scores, std::size_t* shape_usable,
                         std::size_t* color_usable) {
    if (!views.candidates.empty()) {
      BankHybridScoresOverCandidates(
          query, *bank_, views.candidates, spec_.shape, spec_.color,
          scores->use_shape, scores->use_color, &scores->shape,
          &scores->color, shape_usable, color_usable);
    } else {
      BankHybridScoresOverRange(query, *bank_, views.begin, views.end,
                                spec_.shape, spec_.color, scores->use_shape,
                                scores->use_color, &scores->shape,
                                &scores->color, shape_usable, color_usable);
    }
  };
  const auto outcome = [&](const HybridScores& scores) {
    return HybridOutcome(scores, spec_.alpha, spec_.beta, spec_.strategy,
                         *bank_, FallbackLabel());
  };

  // With one task per query (ANN mode, or a single shard), the task
  // scores into rows of its own and finishes the query on its worker, so
  // a batch holds score rows only for its running tasks. Several shard
  // tasks per query fill disjoint ranges of the query's shared rows and
  // keep usable counts per task; the query finishes after the barrier.
  const bool shared_rows = per_query > 1;
  std::vector<HybridScores> rows;  // GUARDED_BY(per_worker_slot)
  std::vector<std::pair<std::size_t, std::size_t>> counts;  // GUARDED_BY(per_worker_slot)
  if (shared_rows) {
    rows.reserve(nq);
    for (std::size_t q = 0; q < nq; ++q) {
      const bool scanned = modes[q].shape || modes[q].color;
      rows.emplace_back(scanned ? n : 0, modes[q].shape, modes[q].color);
    }
    counts.assign(nq * per_query, {0, 0});
  }
  // A query no task scans stays a fallback.
  std::vector<MatchOutcome> outcomes(  // GUARDED_BY(per_worker_slot)
      nq, {FallbackLabel(), Degradation::kFallback});
  ParallelFor(
      nq * per_query,
      [&](std::size_t task) {
        const std::size_t q = task / per_query;
        if (!modes[q].shape && !modes[q].color) return;
        const TaskSpan span(contexts, q, index_.has_value());
        const ViewSet views = TaskViews(*queries[q], task % per_query,
                                        modes[q], &(*full_scans)[q]);
        if (shared_rows) {
          score(*queries[q], views, &rows[q], &counts[task].first,
                &counts[task].second);
          return;
        }
        HybridScores own(n, modes[q].shape, modes[q].color);
        score(*queries[q], views, &own, &own.shape_usable,
              &own.color_usable);
        outcomes[q] = outcome(own);
      },
      options_.n_threads);
  if (!shared_rows) return outcomes;
  for (std::size_t q = 0; q < nq; ++q) {
    for (std::size_t t = q * per_query; t < (q + 1) * per_query; ++t) {
      rows[q].shape_usable += counts[t].first;
      rows[q].color_usable += counts[t].second;
    }
    outcomes[q] = outcome(rows[q]);
  }
  return outcomes;
}

Result<EvalReport> RunApproachBatched(const ApproachSpec& spec,
                                      const std::vector<ImageFeatures>& inputs,
                                      const std::vector<ImageFeatures>& gallery,
                                      const WarmRunOptions& options) {
  SNOR_TRACE_SPAN("serve.engine.run");
  StageTiming timing;
  Stopwatch stage_clock;
  SNOR_ASSIGN_OR_RETURN(
      std::unique_ptr<BatchEngine> engine,
      BatchEngine::Create(spec, gallery, options.engine,
                          options.baseline_seed));
  timing.extract_s = stage_clock.ElapsedSeconds();

  static obs::Counter& classified_counter =
      obs::MetricsRegistry::Global().counter("serve.engine.items");
  static obs::Counter& skipped_counter =
      obs::MetricsRegistry::Global().counter("serve.engine.skipped");

  stage_clock.Reset();
  RunLedger ledger = BuildRunLedger(inputs, skipped_counter);
  std::vector<ObjectClass> predictions;
  predictions.reserve(ledger.eligible.size());
  {
    SNOR_TRACE_SPAN("serve.engine.match");
    const std::size_t batch =
        static_cast<std::size_t>(std::max(1, options.engine.batch_size));
    std::vector<const ImageFeatures*> chunk;
    for (std::size_t begin = 0; begin < ledger.eligible.size();
         begin += batch) {
      const std::size_t end = std::min(ledger.eligible.size(), begin + batch);
      chunk.assign(ledger.eligible.begin() + static_cast<long>(begin),
                   ledger.eligible.begin() + static_cast<long>(end));
      const std::vector<ObjectClass> labels = engine->ClassifyBatch(chunk);
      predictions.insert(predictions.end(), labels.begin(), labels.end());
    }
  }
  timing.match_s = stage_clock.ElapsedSeconds();
  classified_counter.Increment(predictions.size());

  return FinishRunReport(std::move(ledger), predictions,
                         engine->degradation(), timing);
}

}  // namespace snor::serve
