#include "core/experiment.h"

#include <algorithm>

#include "core/feature_bank.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace snor {

std::string ApproachSpec::DisplayName() const {
  switch (kind) {
    case Kind::kBaseline:
      return "Baseline";
    case Kind::kShape:
      switch (shape) {
        case ShapeMatchMethod::kI1:
          return "Shape only L1";
        case ShapeMatchMethod::kI2:
          return "Shape only L2";
        case ShapeMatchMethod::kI3:
          return "Shape only L3";
      }
      break;
    case Kind::kColor:
      switch (color) {
        case HistCompareMethod::kCorrelation:
          return "Color only Correlation";
        case HistCompareMethod::kChiSquare:
          return "Color only Chi-square";
        case HistCompareMethod::kIntersection:
          return "Color only Intersection";
        case HistCompareMethod::kHellinger:
          return "Color only Hellinger";
      }
      break;
    case Kind::kHybrid:
      switch (strategy) {
        case HybridStrategy::kWeightedSum:
          return "Shape+Color (weighted sum)";
        case HybridStrategy::kMicroAverage:
          return "Shape+Color (micro-avg)";
        case HybridStrategy::kMacroAverage:
          return "Shape+Color (macro-avg)";
      }
      break;
  }
  return "Unknown";
}

std::vector<ApproachSpec> Table2Approaches(double alpha, double beta) {
  std::vector<ApproachSpec> specs;
  {
    ApproachSpec s;
    s.kind = ApproachSpec::Kind::kBaseline;
    specs.push_back(s);
  }
  for (ShapeMatchMethod m : {ShapeMatchMethod::kI1, ShapeMatchMethod::kI2,
                             ShapeMatchMethod::kI3}) {
    ApproachSpec s;
    s.kind = ApproachSpec::Kind::kShape;
    s.shape = m;
    specs.push_back(s);
  }
  for (HistCompareMethod m :
       {HistCompareMethod::kCorrelation, HistCompareMethod::kChiSquare,
        HistCompareMethod::kIntersection, HistCompareMethod::kHellinger}) {
    ApproachSpec s;
    s.kind = ApproachSpec::Kind::kColor;
    s.color = m;
    specs.push_back(s);
  }
  for (HybridStrategy strat :
       {HybridStrategy::kWeightedSum, HybridStrategy::kMicroAverage,
        HybridStrategy::kMacroAverage}) {
    ApproachSpec s;
    s.kind = ApproachSpec::Kind::kHybrid;
    s.shape = ShapeMatchMethod::kI3;       // Paper's reported best combo.
    s.color = HistCompareMethod::kHellinger;
    s.strategy = strat;
    s.alpha = alpha;
    s.beta = beta;
    specs.push_back(s);
  }
  return specs;
}

Status ValidateGallery(const ApproachSpec& spec, const FeatureBank& bank,
                       const std::string& action) {
  if (bank.empty()) {
    return Status::InvalidArgument("cannot " + action +
                                   " over an empty gallery");
  }
  if (spec.kind != ApproachSpec::Kind::kBaseline &&
      std::none_of(bank.valid.begin(), bank.valid.end(),
                   [](std::uint8_t v) { return v != 0; })) {
    return Status::Unavailable(
        "gallery has no valid view to match against (all " +
        std::to_string(bank.size()) + " entries failed extraction)");
  }
  return Status::OK();
}

Result<std::unique_ptr<MatchingClassifier>> MakeClassifier(
    const ApproachSpec& spec, const std::vector<ImageFeatures>& gallery,
    std::uint64_t baseline_seed) {
  std::unique_ptr<MatchingClassifier> classifier;
  switch (spec.kind) {
    case ApproachSpec::Kind::kBaseline:
      classifier =
          std::make_unique<RandomBaselineClassifier>(gallery, baseline_seed);
      break;
    case ApproachSpec::Kind::kShape:
      classifier = std::make_unique<ShapeOnlyClassifier>(gallery, spec.shape);
      break;
    case ApproachSpec::Kind::kColor:
      classifier = std::make_unique<ColorOnlyClassifier>(gallery, spec.color);
      break;
    case ApproachSpec::Kind::kHybrid:
      classifier = std::make_unique<HybridClassifier>(
          gallery, spec.shape, spec.color, spec.alpha, spec.beta,
          spec.strategy);
      break;
  }
  SNOR_CHECK_MSG(classifier != nullptr, "unknown approach kind");
  SNOR_RETURN_NOT_OK(ValidateGallery(
      spec, classifier->bank(),
      "build " + spec.DisplayName() + " classifier"));
  return classifier;
}

RunLedger BuildRunLedger(const std::vector<ImageFeatures>& inputs,
                         obs::Counter& skipped) {
  RunLedger ledger;
  ledger.attempted = inputs.size();
  ledger.eligible.reserve(inputs.size());
  ledger.truth.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ImageFeatures& f = inputs[i];
    if (!f.valid && !f.status.ok() &&
        f.status.code() != StatusCode::kNotFound) {
      // Ingest-level failure (IO fault, unavailable frame): skip the
      // item and record it; it degrades coverage, not correctness.
      ledger.errors.push_back({static_cast<int>(i), "ingest", f.status});
      skipped.Increment();
      continue;
    }
    if (!f.valid) {
      // Preprocess-level failure (no foreground component): keep the
      // paper's behaviour — fallback-classified and counted — but leave
      // a ledger entry so the impairment is visible.
      ledger.errors.push_back(
          {static_cast<int>(i), "preprocess",
           f.status.ok() ? Status::NotFound("no foreground component")
                         : f.status});
    }
    ledger.eligible.push_back(&f);
    ledger.truth.push_back(f.label);
  }
  return ledger;
}

EvalReport FinishRunReport(RunLedger ledger,
                           const std::vector<ObjectClass>& predictions,
                           const DegradationStats& degradation,
                           StageTiming timing) {
  const Stopwatch score_clock;
  EvalReport report = Evaluate(ledger.truth, predictions);
  timing.score_s = score_clock.ElapsedSeconds();

  report.attempted = static_cast<int>(ledger.attempted);
  report.errors = std::move(ledger.errors);
  report.degraded_shape_only = degradation.shape_only;
  report.degraded_color_only = degradation.color_only;
  report.timing = timing;
  return report;
}

ExperimentContext::ExperimentContext(const ExperimentConfig& config)
    : config_(config) {}

FeatureOptions ExperimentContext::FeatureOptionsFor(
    bool white_background) const {
  FeatureOptions options;
  options.preprocess.white_background = white_background;
  options.hist_bins = config_.hist_bins;
  return options;
}

const Dataset& ExperimentContext::Sns1() {
  if (!sns1_) {
    DatasetOptions opts;
    opts.canvas_size = config_.canvas_size;
    opts.seed = config_.seed;
    sns1_ = MakeShapeNetSet1(opts);
  }
  return *sns1_;
}

const Dataset& ExperimentContext::Sns2() {
  if (!sns2_) {
    DatasetOptions opts;
    opts.canvas_size = config_.canvas_size;
    opts.seed = config_.seed + 1;
    sns2_ = MakeShapeNetSet2(opts);
  }
  return *sns2_;
}

const Dataset& ExperimentContext::Nyu() {
  if (!nyu_) {
    DatasetOptions opts;
    opts.canvas_size = config_.canvas_size;
    opts.seed = config_.seed + 2;
    opts.sample_fraction = config_.nyu_fraction;
    nyu_ = MakeNyuSet(opts);
  }
  return *nyu_;
}

namespace {

/// Counts reuse of the lazily built per-dataset feature caches.
void RecordCacheAccess(bool hit) {
  static obs::Counter& hits =
      obs::MetricsRegistry::Global().counter("core.feature_cache.hit");
  static obs::Counter& misses =
      obs::MetricsRegistry::Global().counter("core.feature_cache.miss");
  (hit ? hits : misses).Increment();
}

}  // namespace

const std::vector<ImageFeatures>& ExperimentContext::Sns1Features() {
  RecordCacheAccess(sns1_features_.has_value());
  if (!sns1_features_) {
    sns1_features_ = ComputeFeatures(Sns1(), FeatureOptionsFor(true));
  }
  return *sns1_features_;
}

const std::vector<ImageFeatures>& ExperimentContext::Sns2Features() {
  RecordCacheAccess(sns2_features_.has_value());
  if (!sns2_features_) {
    sns2_features_ = ComputeFeatures(Sns2(), FeatureOptionsFor(true));
  }
  return *sns2_features_;
}

const std::vector<ImageFeatures>& ExperimentContext::NyuFeatures() {
  RecordCacheAccess(nyu_features_.has_value());
  if (!nyu_features_) {
    nyu_features_ = ComputeFeatures(Nyu(), FeatureOptionsFor(false));
  }
  return *nyu_features_;
}

void ExperimentContext::ClearFeatureCaches() {
  static obs::Counter& evictions =
      obs::MetricsRegistry::Global().counter("core.feature_cache.evictions");
  if (sns1_features_) evictions.Increment();
  if (sns2_features_) evictions.Increment();
  if (nyu_features_) evictions.Increment();
  sns1_features_.reset();
  sns2_features_.reset();
  nyu_features_.reset();
}

Result<EvalReport> ExperimentContext::RunApproach(
    const ApproachSpec& spec, const std::vector<ImageFeatures>& inputs,
    const std::vector<ImageFeatures>& gallery) {
  SNOR_TRACE_SPAN("core.classify.run");
  StageTiming timing;
  Stopwatch stage_clock;
  SNOR_ASSIGN_OR_RETURN(std::unique_ptr<MatchingClassifier> classifier,
                        MakeClassifier(spec, gallery, config_.seed));
  timing.extract_s = stage_clock.ElapsedSeconds();

  static obs::Histogram& classify_latency_us =
      obs::MetricsRegistry::Global().histogram("core.classify.latency_us");
  static obs::Counter& classified_counter =
      obs::MetricsRegistry::Global().counter("core.classify.items");
  static obs::Counter& skipped_counter =
      obs::MetricsRegistry::Global().counter("core.classify.skipped");

  stage_clock.Reset();
  RunLedger ledger = BuildRunLedger(inputs, skipped_counter);
  std::vector<ObjectClass> predictions;
  predictions.reserve(ledger.eligible.size());
  {
    SNOR_TRACE_SPAN("core.classify.match");
    for (const ImageFeatures* f : ledger.eligible) {
      const obs::ScopedLatencyUs item_latency(classify_latency_us);
      predictions.push_back(classifier->Classify(*f));
    }
  }
  timing.match_s = stage_clock.ElapsedSeconds();
  classified_counter.Increment(predictions.size());

  SNOR_TRACE_SPAN("core.classify.score");
  return FinishRunReport(std::move(ledger), predictions,
                         classifier->degradation(), timing);
}

std::vector<ObjectClass> TruthLabels(
    const std::vector<ImageFeatures>& items) {
  std::vector<ObjectClass> labels;
  labels.reserve(items.size());
  for (const auto& f : items) labels.push_back(f.label);
  return labels;
}

}  // namespace snor
