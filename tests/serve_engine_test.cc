#include "serve/batch_engine.h"

#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"

namespace snor::serve {
namespace {

// Shared small experiment context (same scale as core_classifiers_test).
ExperimentContext& Context() {
  // Leaked on purpose (static-destruction-order safety).
  // NOLINTNEXTLINE(raw-new-delete)
  static ExperimentContext& ctx = *new ExperimentContext([] {
    ExperimentConfig config;
    config.canvas_size = 64;
    config.nyu_fraction = 0.01;
    return config;
  }());
  return ctx;
}

std::vector<const ImageFeatures*> Pointers(
    const std::vector<ImageFeatures>& features) {
  std::vector<const ImageFeatures*> out;
  out.reserve(features.size());
  for (const ImageFeatures& f : features) out.push_back(&f);
  return out;
}

/// Warm predictions must be bit-identical to the cold classifier for any
/// shard / thread / batch configuration. Runs every Table-2 approach.
class BitIdentityTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BitIdentityTest, EngineMatchesColdClassifier) {
  auto& ctx = Context();
  const auto [approach_index, num_shards, n_threads] = GetParam();
  const ApproachSpec spec =
      Table2Approaches()[static_cast<std::size_t>(approach_index)];

  const auto& inputs = ctx.Sns2Features();
  const auto& gallery = ctx.Sns1Features();

  auto cold = MakeClassifier(spec, gallery, ctx.config().seed);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::vector<ObjectClass> expected =
      cold.value()->ClassifyAll(inputs);

  BatchEngineOptions options;
  options.num_shards = num_shards;
  options.n_threads = n_threads;
  auto engine = BatchEngine::Create(spec, gallery, options,
                                    ctx.config().seed);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::vector<ObjectClass> actual =
      engine.value()->ClassifyBatch(Pointers(inputs));

  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "query " << i << " diverges for "
                                      << spec.DisplayName();
  }
  // Degradation accounting must agree too.
  EXPECT_EQ(engine.value()->degradation().shape_only,
            cold.value()->degradation().shape_only);
  EXPECT_EQ(engine.value()->degradation().color_only,
            cold.value()->degradation().color_only);
  EXPECT_EQ(engine.value()->degradation().fallback,
            cold.value()->degradation().fallback);
}

INSTANTIATE_TEST_SUITE_P(
    AllApproachesShardsThreads, BitIdentityTest,
    ::testing::Combine(::testing::Range(0, 11),
                       ::testing::Values(1, 3, 7),
                       ::testing::Values(1, 4)));

TEST(BatchEngineTest, EmptyGalleryIsInvalidArgument) {
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kShape;
  auto engine = BatchEngine::Create(spec, {});
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(BatchEngineTest, AllInvalidGalleryIsUnavailable) {
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kShape;
  std::vector<ImageFeatures> gallery(3);
  for (auto& f : gallery) f.valid = false;
  auto engine = BatchEngine::Create(spec, gallery);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kUnavailable);
}

TEST(BatchEngineTest, ShardCountIsClampedToGallerySize) {
  auto& ctx = Context();
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kShape;
  std::vector<ImageFeatures> tiny(ctx.Sns1Features().begin(),
                                  ctx.Sns1Features().begin() + 3);
  BatchEngineOptions options;
  options.num_shards = 64;
  auto engine = BatchEngine::Create(spec, tiny, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.value()->num_shards(), 3u);
}

// ANN options whose candidate budget covers the whole gallery, so rerank
// sees every usable view and must reproduce exact mode.
BatchEngineOptions FullBudgetAnnOptions(std::size_t gallery_size) {
  BatchEngineOptions options;
  options.match_mode = MatchMode::kAnn;
  options.ann.candidates = static_cast<int>(gallery_size);
  return options;
}

TEST(BatchEngineTest, DegradedQueriesFallBackLikeColdPath) {
  auto& ctx = Context();
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kHybrid;
  spec.alpha = 0.3;
  spec.beta = 0.7;

  // A mix of healthy and degraded queries: one with no histogram mass
  // (colour unusable) and one fully invalid (both unusable -> fallback).
  std::vector<ImageFeatures> inputs(ctx.Sns2Features().begin(),
                                    ctx.Sns2Features().begin() + 6);
  inputs[1].histogram = ColorHistogram(inputs[1].histogram.bins_per_channel());
  inputs[4].valid = false;

  const auto& gallery = ctx.Sns1Features();
  auto cold = MakeClassifier(spec, gallery, ctx.config().seed);
  ASSERT_TRUE(cold.ok());
  const auto expected = cold.value()->ClassifyAll(inputs);

  BatchEngineOptions exact;
  exact.num_shards = 5;
  exact.n_threads = 3;
  for (const BatchEngineOptions& options :
       {exact, FullBudgetAnnOptions(gallery.size())}) {
    SCOPED_TRACE(MatchModeName(options.match_mode));
    auto engine = BatchEngine::Create(spec, gallery, options,
                                      ctx.config().seed);
    ASSERT_TRUE(engine.ok());
    const auto actual = engine.value()->ClassifyBatch(Pointers(inputs));

    EXPECT_EQ(actual, expected);
    const DegradationStats& warm = engine.value()->degradation();
    EXPECT_EQ(warm.fallback, cold.value()->degradation().fallback);
    EXPECT_EQ(warm.shape_only, cold.value()->degradation().shape_only);
    EXPECT_EQ(warm.color_only, cold.value()->degradation().color_only);
    EXPECT_GE(warm.total(), 2u);
    // Every degraded query kept a usable modality or was answered before
    // retrieval, so ANN never had to fall back to a full scan.
    EXPECT_EQ(engine.value()->ann_full_scans(), 0u);
  }
}

// A query with a NaN colour bin gets no ANN colour candidates;
// the engine then scans the whole bank, which must answer and count
// exactly like exact mode.
TEST(BatchEngineTest, AnnWithoutCandidatesFallsBackToFullScan) {
  auto& ctx = Context();
  const auto& gallery = ctx.Sns1Features();
  std::vector<ImageFeatures> inputs(ctx.Sns2Features().begin(),
                                    ctx.Sns2Features().begin() + 4);
  inputs[2].valid = true;
  inputs[2].histogram.bins()[0] = std::numeric_limits<double>::quiet_NaN();

  for (const std::size_t approach : {std::size_t{4}, std::size_t{5},
                                     std::size_t{6}, std::size_t{7}}) {
    const ApproachSpec spec = Table2Approaches()[approach];
    SCOPED_TRACE(spec.DisplayName());
    auto exact = BatchEngine::Create(spec, gallery, {}, ctx.config().seed);
    ASSERT_TRUE(exact.ok());
    auto ann = BatchEngine::Create(spec, gallery,
                                   FullBudgetAnnOptions(gallery.size()),
                                   ctx.config().seed);
    ASSERT_TRUE(ann.ok());
    const FeatureBank bank = PackFeatureBank(gallery);
    const GalleryViewIndex index = GalleryViewIndex::Build(bank);
    ASSERT_TRUE(index.Candidates(inputs[2], false, true).empty());

    EXPECT_EQ(ann.value()->ClassifyBatch(Pointers(inputs)),
              exact.value()->ClassifyBatch(Pointers(inputs)));
    EXPECT_EQ(ann.value()->ann_full_scans(), 1u);
    EXPECT_EQ(exact.value()->ann_full_scans(), 0u);
    const DegradationStats& a = ann.value()->degradation();
    const DegradationStats& e = exact.value()->degradation();
    EXPECT_EQ(a.fallback, e.fallback);
    EXPECT_EQ(a.shape_only, e.shape_only);
    EXPECT_EQ(a.color_only, e.color_only);
  }
}

// A budget below 1 proposes no candidates, so every ANN query would
// silently full-scan; the factory refuses it instead. Exact mode never
// reads the budget.
TEST(BatchEngineTest, AnnRejectsNonPositiveCandidateBudget) {
  auto& ctx = Context();
  const auto& gallery = ctx.Sns1Features();
  const ApproachSpec spec = Table2Approaches()[6];
  const auto bank =
      std::make_shared<const FeatureBank>(PackFeatureBank(gallery));
  for (const int budget : {0, -1}) {
    SCOPED_TRACE(budget);
    BatchEngineOptions options;
    options.match_mode = MatchMode::kAnn;
    options.ann.candidates = budget;
    auto engine = BatchEngine::Create(spec, gallery, options);
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
    auto shared = BatchEngine::CreateFromBank(spec, bank, options);
    ASSERT_FALSE(shared.ok());
    EXPECT_EQ(shared.status().code(), StatusCode::kInvalidArgument);

    options.match_mode = MatchMode::kExact;
    EXPECT_TRUE(BatchEngine::Create(spec, gallery, options).ok());
  }
  BatchEngineOptions one;
  one.match_mode = MatchMode::kAnn;
  one.ann.candidates = 1;
  EXPECT_TRUE(BatchEngine::Create(spec, gallery, one).ok());
}

TEST(RunApproachBatchedTest, ReportMatchesColdRunApproach) {
  auto& ctx = Context();
  for (int shards : {1, 4}) {
    for (std::size_t approach : {std::size_t{0}, std::size_t{2},
                                 std::size_t{6}, std::size_t{9}}) {
      const ApproachSpec spec = Table2Approaches()[approach];
      const auto cold =
          ctx.RunApproach(spec, ctx.Sns2Features(), ctx.Sns1Features());
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();

      WarmRunOptions options;
      options.engine.num_shards = shards;
      options.engine.batch_size = 16;
      options.baseline_seed = ctx.config().seed;
      const auto warm = RunApproachBatched(spec, ctx.Sns2Features(),
                                           ctx.Sns1Features(), options);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();

      EXPECT_EQ(warm.value().total, cold.value().total);
      EXPECT_EQ(warm.value().attempted, cold.value().attempted);
      EXPECT_DOUBLE_EQ(warm.value().cumulative_accuracy,
                       cold.value().cumulative_accuracy);
      EXPECT_EQ(warm.value().confusion, cold.value().confusion)
          << spec.DisplayName() << " with " << shards << " shards";
      EXPECT_EQ(warm.value().errors.size(), cold.value().errors.size());
    }
  }
}

/// --match-mode=exact must stay bit-identical to the cold classifier for
/// every approach (it is the default, so BitIdentityTest above already
/// covers it implicitly; this pins the explicit option).
TEST(MatchModeTest, ExactModeIsBitIdenticalForAllApproaches) {
  auto& ctx = Context();
  const auto& inputs = ctx.Sns2Features();
  const auto& gallery = ctx.Sns1Features();
  for (const ApproachSpec& spec : Table2Approaches()) {
    auto cold = MakeClassifier(spec, gallery, ctx.config().seed);
    ASSERT_TRUE(cold.ok());
    const auto expected = cold.value()->ClassifyAll(inputs);

    BatchEngineOptions options;
    options.match_mode = MatchMode::kExact;
    options.num_shards = 3;
    auto engine = BatchEngine::Create(spec, gallery, options,
                                      ctx.config().seed);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(engine.value()->ClassifyBatch(Pointers(inputs)), expected)
        << spec.DisplayName();
  }
}

/// With a candidate budget covering the whole gallery, ANN retrieval
/// proposes every usable view, so exact rerank reproduces the exact-mode
/// labels bit for bit — the recall knob degrades gracefully to exact.
TEST(MatchModeTest, AnnWithFullBudgetMatchesExact) {
  auto& ctx = Context();
  const auto& inputs = ctx.Sns2Features();
  const auto& gallery = ctx.Sns1Features();
  for (const std::size_t approach : {std::size_t{1}, std::size_t{4},
                                     std::size_t{6}, std::size_t{10}}) {
    const ApproachSpec spec = Table2Approaches()[approach];
    auto cold = MakeClassifier(spec, gallery, ctx.config().seed);
    ASSERT_TRUE(cold.ok());
    const auto expected = cold.value()->ClassifyAll(inputs);

    BatchEngineOptions options;
    options.match_mode = MatchMode::kAnn;
    options.ann.candidates = static_cast<int>(gallery.size());
    options.num_shards = 3;
    auto engine = BatchEngine::Create(spec, gallery, options,
                                      ctx.config().seed);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(engine.value()->ClassifyBatch(Pointers(inputs)), expected)
        << spec.DisplayName();
  }
}

/// A small candidate budget trades recall for speed but must stay a valid
/// classification (labels drawn from the gallery's classes) with high
/// agreement against exact mode on this small context.
TEST(MatchModeTest, AnnWithSmallBudgetKeepsHighRecall) {
  auto& ctx = Context();
  const auto& inputs = ctx.Sns2Features();
  const auto& gallery = ctx.Sns1Features();
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kHybrid;
  spec.alpha = 0.3;
  spec.beta = 0.7;

  BatchEngineOptions exact_opts;
  auto exact = BatchEngine::Create(spec, gallery, exact_opts,
                                   ctx.config().seed);
  ASSERT_TRUE(exact.ok());
  const auto expected = exact.value()->ClassifyBatch(Pointers(inputs));

  BatchEngineOptions ann_opts;
  ann_opts.match_mode = MatchMode::kAnn;
  ann_opts.ann.candidates = 16;
  auto ann = BatchEngine::Create(spec, gallery, ann_opts, ctx.config().seed);
  ASSERT_TRUE(ann.ok());
  const auto actual = ann.value()->ClassifyBatch(Pointers(inputs));

  ASSERT_EQ(actual.size(), expected.size());
  std::size_t agree = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] == expected[i]) ++agree;
  }
  EXPECT_GE(static_cast<double>(agree),
            0.95 * static_cast<double>(expected.size()));
}

TEST(MatchModeTest, ParseAndNameRoundTrip) {
  const auto exact = ParseMatchMode("exact");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value(), MatchMode::kExact);
  const auto ann = ParseMatchMode("ann");
  ASSERT_TRUE(ann.ok());
  EXPECT_EQ(ann.value(), MatchMode::kAnn);
  EXPECT_FALSE(ParseMatchMode("fuzzy").ok());
  EXPECT_STREQ(MatchModeName(MatchMode::kExact), "exact");
  EXPECT_STREQ(MatchModeName(MatchMode::kAnn), "ann");
}

TEST(RunApproachBatchedTest, EmptyGalleryPropagatesStatus) {
  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kColor;
  const auto warm = RunApproachBatched(spec, {}, {});
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace snor::serve
