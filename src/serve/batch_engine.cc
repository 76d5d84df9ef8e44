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
  if (bank->empty()) {
    return Status::InvalidArgument("cannot shard " + spec.DisplayName() +
                                   " over an empty gallery");
  }
  if (spec.kind != ApproachSpec::Kind::kBaseline) {
    const bool any_valid = std::any_of(bank->valid.begin(), bank->valid.end(),
                                       [](std::uint8_t v) { return v != 0; });
    if (!any_valid) {
      return Status::Unavailable(
          "gallery has no valid view to match against (all " +
          std::to_string(bank->size()) + " entries failed extraction)");
    }
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
  if (options_.match_mode == MatchMode::kAnn && index_.has_value()) {
    if (spec_.kind == ApproachSpec::Kind::kHybrid) {
      return ClassifyHybridAnn(queries, context_array);
    }
    return ClassifyPartialArgminAnn(queries, context_array);
  }
  if (spec_.kind == ApproachSpec::Kind::kHybrid) {
    return ClassifyHybrid(queries, context_array);
  }
  return ClassifyPartialArgmin(queries, context_array);
}

std::vector<ObjectClass> BatchEngine::ClassifyPartialArgmin(
    const std::vector<const ImageFeatures*>& queries,
    const obs::TraceContext* contexts) {
  const std::size_t nq = queries.size();
  const std::size_t ns = shards_.size();
  const bool shape = spec_.kind == ApproachSpec::Kind::kShape;
  const bool maximize = !shape && IsSimilarityMetric(spec_.color);

  std::vector<char> usable(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    usable[q] = shape ? ShapeModalityUsable(*queries[q])
                      : queries[q]->valid;
  }

  // One partial arg-optimum per (query, shard) cell, filled by the
  // parallel task grid; every worker writes only its own cell.
  std::vector<PartialBest> partials(nq * ns);  // GUARDED_BY(per_worker_slot)
  ParallelFor(
      nq * ns,
      [&](std::size_t task) {
        const std::size_t q = task / ns;
        if (!usable[q]) return;
        // Scope the scan span to the query's request chain (no-op when
        // the batch carries no contexts).
        std::optional<obs::ScopedTraceContext> scope;
        if (contexts != nullptr) scope.emplace(contexts[q]);
        SNOR_TRACE_SPAN("serve.engine.shard_scan");
        const Shard& shard = shards_[task % ns];
        // Bank kernels: same per-pair functions and skip rules as the
        // cold *OverRange loops, streaming the SoA rows instead of
        // chasing AoS pointers.
        partials[task] =
            shape ? BankShapeArgminOverRange(*queries[q], *bank_, shard.begin,
                                             shard.end, spec_.shape)
                  : BankColorArgbestOverRange(*queries[q], *bank_, shard.begin,
                                              shard.end, spec_.color);
      },
      options_.n_threads);

  // Sequential merge in ascending shard order: strict comparison keeps
  // the lowest-index optimum, exactly like the cold sequential scan.
  std::vector<ObjectClass> predictions(nq, FallbackLabel());
  for (std::size_t q = 0; q < nq; ++q) {
    if (!usable[q]) {
      ++degradation_.fallback;
      continue;
    }
    double best = maximize ? -kUnusableScore : kUnusableScore;
    ObjectClass best_label = FallbackLabel();
    for (std::size_t s = 0; s < ns; ++s) {
      const PartialBest& p = partials[q * ns + s];
      if (!p.found) continue;
      const bool better = maximize ? p.score > best : p.score < best;
      if (better) {
        best = p.score;
        best_label = p.label;
      }
    }
    predictions[q] = best_label;
  }
  return predictions;
}

std::vector<ObjectClass> BatchEngine::ClassifyHybrid(
    const std::vector<const ImageFeatures*>& queries,
    const obs::TraceContext* contexts) {
  const std::size_t nq = queries.size();
  const std::size_t ns = shards_.size();
  const std::size_t n = bank_->size();

  std::vector<char> use_shape(nq);
  std::vector<char> use_color(nq);
  std::vector<std::vector<double>> shape_rows(nq);  // GUARDED_BY(per_worker_slot)
  std::vector<std::vector<double>> color_rows(nq);  // GUARDED_BY(per_worker_slot)
  for (std::size_t q = 0; q < nq; ++q) {
    use_shape[q] = ShapeModalityUsable(*queries[q]);
    use_color[q] = ColorModalityUsable(*queries[q]);
    if (use_shape[q] || use_color[q]) {
      shape_rows[q].assign(n, kUnusableScore);
      color_rows[q].assign(n, kUnusableScore);
    }
  }

  // Per-(query, shard) usable-score counts; summed per query after the
  // barrier to decide modality collapse exactly like ScoresForModes.
  std::vector<std::pair<std::size_t, std::size_t>> counts(nq * ns,  // GUARDED_BY(per_worker_slot)
                                                          {0, 0});
  ParallelFor(
      nq * ns,
      [&](std::size_t task) {
        const std::size_t q = task / ns;
        if (!use_shape[q] && !use_color[q]) return;
        std::optional<obs::ScopedTraceContext> scope;
        if (contexts != nullptr) scope.emplace(contexts[q]);
        SNOR_TRACE_SPAN("serve.engine.shard_scan");
        const Shard& shard = shards_[task % ns];
        BankHybridScoresOverRange(
            *queries[q], *bank_, shard.begin, shard.end, spec_.shape,
            spec_.color, use_shape[q] != 0, use_color[q] != 0,
            &shape_rows[q], &color_rows[q], &counts[task].first,
            &counts[task].second);
      },
      options_.n_threads);

  std::vector<ObjectClass> predictions(nq, FallbackLabel());
  for (std::size_t q = 0; q < nq; ++q) {
    if (!use_shape[q] && !use_color[q]) {
      ++degradation_.fallback;
      continue;
    }
    std::size_t shape_usable = 0;
    std::size_t color_usable = 0;
    for (std::size_t s = 0; s < ns; ++s) {
      shape_usable += counts[q * ns + s].first;
      color_usable += counts[q * ns + s].second;
    }
    const bool shape_live = use_shape[q] != 0 && shape_usable > 0;
    const bool color_live = use_color[q] != 0 && color_usable > 0;
    if (!shape_live && !color_live) {
      ++degradation_.fallback;
      continue;
    }
    if (shape_live != color_live) {
      if (shape_live) {
        ++degradation_.shape_only;
      } else {
        ++degradation_.color_only;
      }
    }
    const std::vector<double> theta =
        AssembleHybridTheta(shape_rows[q], color_rows[q], spec_.alpha,
                            spec_.beta, shape_live, color_live);
    predictions[q] =
        BankHybridArgminLabel(theta, *bank_, spec_.strategy, FallbackLabel());
  }
  return predictions;
}

std::vector<ObjectClass> BatchEngine::ClassifyPartialArgminAnn(
    const std::vector<const ImageFeatures*>& queries,
    const obs::TraceContext* contexts) {
  const std::size_t nq = queries.size();
  const bool shape = spec_.kind == ApproachSpec::Kind::kShape;

  std::vector<char> usable(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    usable[q] = shape ? ShapeModalityUsable(*queries[q])
                      : queries[q]->valid;
  }

  // One task per query: candidate retrieval is sub-linear, so sharding
  // the tiny rerank scan would cost more than it saves.
  std::vector<PartialBest> bests(nq);  // GUARDED_BY(per_worker_slot)
  std::vector<char> full_scan(nq, 0);  // GUARDED_BY(per_worker_slot)
  ParallelFor(
      nq,
      [&](std::size_t q) {
        if (!usable[q]) return;
        std::optional<obs::ScopedTraceContext> scope;
        if (contexts != nullptr) scope.emplace(contexts[q]);
        SNOR_TRACE_SPAN("serve.engine.ann_rerank");
        const std::vector<int> cands =
            index_->Candidates(*queries[q], shape, !shape);
        if (cands.empty()) {
          // No usable modality embedding: degrade to a full exact scan
          // rather than answering from nothing.
          full_scan[q] = 1;
          const std::size_t n = bank_->size();
          bests[q] = shape ? BankShapeArgminOverRange(*queries[q], *bank_, 0,
                                                      n, spec_.shape)
                           : BankColorArgbestOverRange(*queries[q], *bank_, 0,
                                                       n, spec_.color);
          return;
        }
        bests[q] = shape ? BankShapeArgminOverCandidates(*queries[q], *bank_,
                                                         cands, spec_.shape)
                         : BankColorArgbestOverCandidates(*queries[q], *bank_,
                                                          cands, spec_.color);
      },
      options_.n_threads);

  static obs::Counter& full_scan_counter =
      obs::MetricsRegistry::Global().counter("serve.engine.ann_full_scans");
  std::vector<ObjectClass> predictions(nq, FallbackLabel());
  for (std::size_t q = 0; q < nq; ++q) {
    if (!usable[q]) {
      ++degradation_.fallback;
      continue;
    }
    if (full_scan[q] != 0) {
      ++ann_full_scans_;
      full_scan_counter.Increment();
    }
    const PartialBest& p = bests[q];
    if (p.found) predictions[q] = p.label;
  }
  return predictions;
}

std::vector<ObjectClass> BatchEngine::ClassifyHybridAnn(
    const std::vector<const ImageFeatures*>& queries,
    const obs::TraceContext* contexts) {
  const std::size_t nq = queries.size();
  const std::size_t n = bank_->size();

  std::vector<char> use_shape(nq);
  std::vector<char> use_color(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    use_shape[q] = ShapeModalityUsable(*queries[q]);
    use_color[q] = ColorModalityUsable(*queries[q]);
  }

  std::vector<ObjectClass> labels(nq, FallbackLabel());  // GUARDED_BY(per_worker_slot)
  // Per-query degradation verdict resolved inside the task, applied to
  // the shared counters sequentially after the barrier.
  enum : char { kNone, kFallback, kShapeOnly, kColorOnly };
  std::vector<char> verdicts(nq, kNone);  // GUARDED_BY(per_worker_slot)
  std::vector<char> full_scan(nq, 0);     // GUARDED_BY(per_worker_slot)
  ParallelFor(
      nq,
      [&](std::size_t q) {
        if (!use_shape[q] && !use_color[q]) {
          verdicts[q] = kFallback;
          return;
        }
        std::optional<obs::ScopedTraceContext> scope;
        if (contexts != nullptr) scope.emplace(contexts[q]);
        SNOR_TRACE_SPAN("serve.engine.ann_rerank");
        const std::vector<int> cands = index_->Candidates(
            *queries[q], use_shape[q] != 0, use_color[q] != 0);
        std::vector<double> shape_row(n, kUnusableScore);
        std::vector<double> color_row(n, kUnusableScore);
        std::size_t shape_usable = 0;
        std::size_t color_usable = 0;
        if (cands.empty()) {
          full_scan[q] = 1;
          BankHybridScoresOverRange(*queries[q], *bank_, 0, n, spec_.shape,
                                    spec_.color, use_shape[q] != 0,
                                    use_color[q] != 0, &shape_row, &color_row,
                                    &shape_usable, &color_usable);
        } else {
          BankHybridScoresOverCandidates(
              *queries[q], *bank_, cands, spec_.shape, spec_.color,
              use_shape[q] != 0, use_color[q] != 0, &shape_row, &color_row,
              &shape_usable, &color_usable);
        }
        const bool shape_live = use_shape[q] != 0 && shape_usable > 0;
        const bool color_live = use_color[q] != 0 && color_usable > 0;
        if (!shape_live && !color_live) {
          verdicts[q] = kFallback;
          return;
        }
        if (shape_live != color_live) {
          verdicts[q] = shape_live ? kShapeOnly : kColorOnly;
        }
        const std::vector<double> theta =
            AssembleHybridTheta(shape_row, color_row, spec_.alpha, spec_.beta,
                                shape_live, color_live);
        labels[q] =
            BankHybridArgminLabel(theta, *bank_, spec_.strategy,
                                  FallbackLabel());
      },
      options_.n_threads);

  static obs::Counter& full_scan_counter =
      obs::MetricsRegistry::Global().counter("serve.engine.ann_full_scans");
  for (std::size_t q = 0; q < nq; ++q) {
    if (full_scan[q] != 0) {
      ++ann_full_scans_;
      full_scan_counter.Increment();
    }
    switch (verdicts[q]) {
      case kFallback: ++degradation_.fallback; break;
      case kShapeOnly: ++degradation_.shape_only; break;
      case kColorOnly: ++degradation_.color_only; break;
      default: break;
    }
  }
  return labels;
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

  // Identical skip/ledger semantics to the cold RunApproach: ingest
  // failures are skipped and recorded, preprocess failures are
  // fallback-classified and recorded.
  std::vector<ObjectClass> truth;
  std::vector<const ImageFeatures*> eligible;
  std::vector<ItemError> errors;
  truth.reserve(inputs.size());
  eligible.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ImageFeatures& f = inputs[i];
    if (!f.valid && !f.status.ok() &&
        f.status.code() != StatusCode::kNotFound) {
      errors.push_back({static_cast<int>(i), "ingest", f.status});
      skipped_counter.Increment();
      continue;
    }
    if (!f.valid) {
      errors.push_back(
          {static_cast<int>(i), "preprocess",
           f.status.ok() ? Status::NotFound("no foreground component")
                         : f.status});
    }
    truth.push_back(f.label);
    eligible.push_back(&f);
  }

  stage_clock.Reset();
  std::vector<ObjectClass> predictions;
  predictions.reserve(eligible.size());
  {
    SNOR_TRACE_SPAN("serve.engine.match");
    const std::size_t batch =
        static_cast<std::size_t>(std::max(1, options.engine.batch_size));
    std::vector<const ImageFeatures*> chunk;
    for (std::size_t begin = 0; begin < eligible.size(); begin += batch) {
      const std::size_t end = std::min(eligible.size(), begin + batch);
      chunk.assign(eligible.begin() + static_cast<long>(begin),
                   eligible.begin() + static_cast<long>(end));
      const std::vector<ObjectClass> labels = engine->ClassifyBatch(chunk);
      predictions.insert(predictions.end(), labels.begin(), labels.end());
    }
  }
  timing.match_s = stage_clock.ElapsedSeconds();
  classified_counter.Increment(predictions.size());

  stage_clock.Reset();
  EvalReport report = Evaluate(truth, predictions);
  timing.score_s = stage_clock.ElapsedSeconds();

  report.attempted = static_cast<int>(inputs.size());
  report.errors = std::move(errors);
  report.degraded_shape_only = engine->degradation().shape_only;
  report.degraded_color_only = engine->degradation().color_only;
  report.timing = timing;
  return report;
}

}  // namespace snor::serve
