// Reproduces Table 2: cumulative (cross-class) accuracy of the shape-only,
// colour-only, and hybrid matching pipelines on (i) NYUSet vs SNS1 and
// (ii) SNS1 vs SNS2, against a random-assignment baseline.
//
// Fault-tolerance demo: pass `--fault-seed N` to arm a deterministic 1%
// IO-failure rate on frame ingestion (use `--fault-rate R` to override).
// Faulted items are skipped and recorded in the per-run error ledger, so
// coverage drops while the accuracy over covered items stays intact —
// degraded input never aborts a run.

#include <cstring>
#include <iostream>

#include "bench_util.h"
#include "serve/batch_engine.h"
#include "util/fault.h"
#include "util/table.h"

namespace {

// Published Table-2 values, same row order as Table2Approaches().
constexpr double kPaperNyu[] = {0.10787, 0.14350, 0.14537, 0.15835,
                                0.15965, 0.14537, 0.18777, 0.20637,
                                0.20637, 0.16945, 0.16513};
constexpr double kPaperSns[] = {0.10, 0.18, 0.12, 0.19, 0.28, 0.10,
                                0.29, 0.32, 0.32, 0.28, 0.22};

void PrintLedgerSummary(const char* run_name,
                        const snor::EvalReport& report) {
  std::printf("  [%s] coverage %.4f (%d/%d evaluated), %zu ledger entries",
              run_name, report.Coverage(), report.total, report.attempted,
              report.errors.size());
  std::size_t ingest = 0;
  for (const auto& e : report.errors) {
    if (e.stage == "ingest") ++ingest;
  }
  std::printf(" (%zu ingest)\n", ingest);
  // Show the first entry so the Status plumbing is visible end to end.
  if (!report.errors.empty()) {
    const auto& e = report.errors.front();
    std::printf("    e.g. item %d [%s]: %s\n", e.index, e.stage.c_str(),
                e.status.ToString().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snor;

  bool faults_armed = false;
  std::uint64_t fault_seed = 0;
  double fault_rate = 0.01;
  std::string store_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc &&
        bench::ParseFlagValue(argv[i + 1], &fault_seed)) {
      faults_armed = true;
      ++i;
    } else if (std::strcmp(argv[i], "--fault-rate") == 0 && i + 1 < argc &&
               bench::ParseFlagValue(argv[i + 1], &fault_rate)) {
      ++i;
    } else if (std::strcmp(argv[i], "--feature-store") == 0 && i + 1 < argc) {
      store_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--fault-seed N] [--fault-rate R] "
                   "[--feature-store DIR]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::PrintHeader("Table 2",
                     "Cumulative accuracy, exploratory matching pipelines");
  SNOR_TRACE_SPAN("bench.table2_shape_color");
  Stopwatch sw;
  bench::BenchResults telemetry;

  ExperimentContext context(bench::DefaultConfig());
  const auto specs = Table2Approaches(context.config().alpha,
                                      context.config().beta);

  if (faults_armed) {
    std::printf("Fault injection: io-read armed at rate %.3f, seed %llu\n",
                fault_rate,
                static_cast<unsigned long long>(fault_seed));
    FaultInjector::Global().Arm(FaultPoint::kIoRead, fault_rate, fault_seed);
  }
  // Feature acquisition: cold (in-process extraction) or store-backed.
  // With --feature-store, the first invocation extracts and persists the
  // banks (miss) and later invocations load them back (hit), turning the
  // dominant extraction cost into a file read.
  const bool use_store = !store_dir.empty();
  std::printf("%s features: NYU, SNS1 (82), SNS2 (100)...\n",
              use_store ? "Acquiring (store-backed)" : "Computing");
  Stopwatch feature_sw;
  std::vector<ImageFeatures> nyu_bank, sns1_bank, sns2_bank;
  if (use_store) {
    // Dataset providers are only invoked on a store miss, so a warm run
    // never renders a single view.
    auto nyu = bench::BankFeatures(
        context, store_dir, "nyu",
        [&]() -> const Dataset& { return context.Nyu(); },
        /*white_background=*/false);
    auto sns1 = bench::BankFeatures(
        context, store_dir, "sns1",
        [&]() -> const Dataset& { return context.Sns1(); },
        /*white_background=*/true);
    auto sns2 = bench::BankFeatures(
        context, store_dir, "sns2",
        [&]() -> const Dataset& { return context.Sns2(); },
        /*white_background=*/true);
    if (!nyu.ok() || !sns1.ok() || !sns2.ok()) {
      const Status& bad = !nyu.ok() ? nyu.status()
                          : !sns1.ok() ? sns1.status()
                                       : sns2.status();
      std::fprintf(stderr, "feature store unavailable: %s\n",
                   bad.ToString().c_str());
      return 1;
    }
    nyu_bank = std::move(nyu).value();
    sns1_bank = std::move(sns1).value();
    sns2_bank = std::move(sns2).value();
  } else {
    // Force extraction inside the timed section so feature_acquisition_s
    // is comparable across cold and store-backed runs.
    (void)context.NyuFeatures();
    (void)context.Sns1Features();
    (void)context.Sns2Features();
  }
  const double feature_s = feature_sw.ElapsedSeconds();
  const auto& nyu_features = use_store ? nyu_bank : context.NyuFeatures();
  const auto& sns1_features = use_store ? sns1_bank : context.Sns1Features();
  const auto& sns2_features = use_store ? sns2_bank : context.Sns2Features();

  // Warm runs go through the sharded batch engine; predictions stay
  // bit-identical to the cold classifier loop.
  serve::WarmRunOptions warm_options;
  warm_options.baseline_seed = context.config().seed;
  auto run = [&](const ApproachSpec& spec,
                 const std::vector<ImageFeatures>& inputs,
                 const std::vector<ImageFeatures>& gallery) {
    return use_store
               ? serve::RunApproachBatched(spec, inputs, gallery,
                                           warm_options)
               : context.RunApproach(spec, inputs, gallery);
  };

  Stopwatch match_sw;
  TablePrinter table({"Approach", "NYU v. SNS1", "(paper)", "SNS1 v. SNS2",
                      "(paper)"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto nyu_result = run(specs[i], nyu_features, sns1_features);
    // Paper's second configuration: SNS1 inputs matched against SNS2.
    const auto sns_result = run(specs[i], sns1_features, sns2_features);
    if (!nyu_result.ok() || !sns_result.ok()) {
      // A whole run can be impossible (e.g. every gallery entry faulted);
      // report it and keep going instead of aborting the table.
      const Status& bad =
          nyu_result.ok() ? sns_result.status() : nyu_result.status();
      std::printf("  %s: run skipped (%s)\n",
                  specs[i].DisplayName().c_str(), bad.ToString().c_str());
      continue;
    }
    const EvalReport& nyu_report = nyu_result.value();
    const EvalReport& sns_report = sns_result.value();
    table.AddRow({specs[i].DisplayName(),
                  StrFormat("%.5f", nyu_report.cumulative_accuracy),
                  StrFormat("%.5f", kPaperNyu[i]),
                  StrFormat("%.2f", sns_report.cumulative_accuracy),
                  StrFormat("%.2f", kPaperSns[i])});
    telemetry.emplace_back(specs[i].DisplayName() + " nyu_accuracy",
                           nyu_report.cumulative_accuracy);
    telemetry.emplace_back(specs[i].DisplayName() + " sns_accuracy",
                           sns_report.cumulative_accuracy);
    if (faults_armed && i + 1 == specs.size()) {
      std::printf("Error ledger for the final approach (%s):\n",
                  specs[i].DisplayName().c_str());
      PrintLedgerSummary("NYU v. SNS1", nyu_report);
      PrintLedgerSummary("SNS1 v. SNS2", sns_report);
    }
  }
  table.Print(std::cout);
  if (faults_armed) {
    auto& injector = FaultInjector::Global();
    std::printf(
        "Injected io-read faults: %llu fired / %llu probes. Faulted items\n"
        "degrade coverage, not correctness: they are skipped and recorded\n"
        "in each report's error ledger, never aborting a run.\n",
        static_cast<unsigned long long>(
            injector.fire_count(FaultPoint::kIoRead)),
        static_cast<unsigned long long>(
            injector.probe_count(FaultPoint::kIoRead)));
    injector.DisarmAll();
  }
  std::printf(
      "Shape expectations (paper): every method beats the 0.10 baseline;\n"
      "shape-only trails colour-only; Hellinger is the best single cue;\n"
      "the weighted-sum hybrid ties/approaches the best colour result.\n");
  telemetry.emplace_back("match_s", match_sw.ElapsedSeconds());
  bench::RecordStoreTelemetry(&telemetry, use_store, feature_s);
  bench::EmitBenchJson("table2_shape_color", telemetry, context.config());
  bench::PrintElapsed(sw);
  return 0;
}
