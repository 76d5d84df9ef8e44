#ifndef SNOR_BENCH_BENCH_UTIL_H_
#define SNOR_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/feature_store.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"

namespace snor::bench {

/// True when the SNOR_QUICK environment variable is set (non-empty, not
/// "0"): table benches then run on subsampled data for fast iteration.
/// The default (unset) reproduces the paper-scale configuration.
inline bool QuickMode() {
  const char* env = std::getenv("SNOR_QUICK");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

/// Experiment configuration honouring SNOR_QUICK.
inline ExperimentConfig DefaultConfig() {
  ExperimentConfig config;
  config.canvas_size = 96;
  config.nyu_fraction = QuickMode() ? 0.05 : 1.0;
  return config;
}

/// Prints a standard header naming the table being reproduced, and
/// initialises tracing from the SNOR_TRACE environment variable so every
/// bench is traceable without per-bench plumbing.
inline void PrintHeader(const char* table_name, const char* description) {
  obs::InitTraceFromEnv();
  std::printf("=======================================================\n");
  std::printf("%s — %s\n", table_name, description);
  std::printf("Mode: %s\n",
              QuickMode() ? "QUICK (SNOR_QUICK set; subsampled data)"
                          : "paper scale");
  if (obs::TraceEnabled()) {
    std::printf("Trace: %s (Chrome trace_event JSON)\n",
                obs::TraceRecorder::Global().output_path().c_str());
  }
  std::printf("=======================================================\n");
}

/// Prints elapsed wall-clock at the end of a reproduction run.
/// Sub-second runs print milliseconds (a "0.0s" reading hid everything
/// under 100ms); the reading is also exported as the `bench.elapsed_ms`
/// gauge so telemetry files carry it.
inline void PrintElapsed(const Stopwatch& sw) {
  const double elapsed_s = sw.ElapsedSeconds();
  obs::MetricsRegistry::Global().gauge("bench.elapsed_ms").Set(elapsed_s *
                                                               1e3);
  if (elapsed_s < 1.0) {
    std::printf("[elapsed: %.1fms]\n\n", elapsed_s * 1e3);
  } else {
    std::printf("[elapsed: %.1fs]\n\n", elapsed_s);
  }
}

/// \brief One named numeric result (accuracy, F1, ...) for the telemetry
/// file; ordered, so the JSON mirrors the bench's own reporting order.
using BenchResults = std::vector<std::pair<std::string, double>>;

/// Writes `BENCH_<name>.json`: bench identity, quick/paper mode, the
/// experiment config, the named results, and a full metrics-registry
/// snapshot (per-stage latency percentiles included). Returns false (and
/// warns on stderr) when the file cannot be written; benches treat that
/// as non-fatal.
inline bool EmitBenchJson(const std::string& name,
                          const BenchResults& results,
                          const ExperimentConfig& config = {}) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String(name);
  json.Key("quick_mode");
  json.Bool(QuickMode());
  json.Key("config");
  json.BeginObject();
  json.Key("canvas_size");
  json.Int(config.canvas_size);
  json.Key("nyu_fraction");
  json.Number(config.nyu_fraction);
  json.Key("hist_bins");
  json.Int(config.hist_bins);
  json.Key("alpha");
  json.Number(config.alpha);
  json.Key("beta");
  json.Number(config.beta);
  json.Key("seed");
  json.Int(static_cast<std::int64_t>(config.seed));
  json.EndObject();
  json.Key("results");
  json.BeginObject();
  for (const auto& [key, value] : results) {
    json.Key(key);
    json.Number(value);
  }
  json.EndObject();
  json.Key("metrics");
  json.Raw(obs::MetricsRegistry::Global().DumpJson());
  json.EndObject();

  const std::string path = "BENCH_" + name + ".json";
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string& text = json.str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), out) ==
                  text.size() &&
                  std::fputc('\n', out) != EOF;
  std::fclose(out);
  if (ok) std::printf("[telemetry: %s]\n", path.c_str());
  return ok;
}

/// Extracts `--feature-store <dir>` from the argument list (empty string
/// when absent). Table benches pass the directory to `BankFeatures` so a
/// second invocation loads the persisted feature banks (the warm path)
/// instead of re-extracting everything.
inline std::string FeatureStoreDirFromArgs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--feature-store") == 0) return argv[i + 1];
  }
  return {};
}

/// Store-backed feature acquisition for one dataset: loads
/// `<store_dir>/<bank>.fst` when it matches the context's extraction
/// options, otherwise materialises the dataset (the provider is only
/// invoked on a miss, so a hit skips rendering), computes the features,
/// and persists them for the next run. `white_background` selects the
/// same preprocessing options the context uses for that dataset.
[[nodiscard]] inline Result<std::vector<ImageFeatures>> BankFeatures(
    ExperimentContext& context, const std::string& store_dir,
    const std::string& bank, const serve::DatasetProvider& dataset,
    bool white_background) {
  return serve::LoadOrComputeFeatures(
      store_dir + "/" + bank + ".fst", dataset,
      context.FeatureOptionsFor(white_background));
}

/// Records the store hit/miss counters and the feature-acquisition time
/// in the telemetry results, so `BENCH_*.json` captures the cold-vs-warm
/// trajectory across invocations.
inline void RecordStoreTelemetry(BenchResults* telemetry, bool store_enabled,
                                 double feature_s) {
  auto& registry = obs::MetricsRegistry::Global();
  telemetry->emplace_back("store_enabled", store_enabled ? 1.0 : 0.0);
  telemetry->emplace_back(
      "store_hits",
      static_cast<double>(registry.counter("serve.store.hit").value()));
  telemetry->emplace_back(
      "store_misses",
      static_cast<double>(registry.counter("serve.store.miss").value()));
  telemetry->emplace_back("feature_acquisition_s", feature_s);
}

/// Appends the four class-wise metric rows (Accuracy, Precision, Recall,
/// F1) of one approach to a table, using the paper's reporting convention
/// (accuracy = per-class recall; precision = TP / total samples).
inline void AddClasswiseRows(TablePrinter& table, const std::string& name,
                             const EvalReport& report, int precision = 5) {
  auto row = [&](const char* metric, auto getter) {
    std::vector<std::string> cells = {name + " " + metric};
    for (int c = 0; c < kNumClasses; ++c) {
      cells.push_back(StrFormat(
          "%.*f", precision,
          getter(report.per_class[static_cast<std::size_t>(c)])));
    }
    table.AddRow(std::move(cells));
  };
  row("Accuracy", [](const ClassMetrics& m) { return m.recall; });
  row("Precision",
      [](const ClassMetrics& m) { return m.precision_paper; });
  row("Recall", [](const ClassMetrics& m) { return m.recall; });
  row("F1", [](const ClassMetrics& m) { return m.f1_paper; });
}

/// Header row for class-wise tables: "Approach/Measure" + 10 class names.
inline std::vector<std::string> ClasswiseHeader() {
  std::vector<std::string> header = {"Approach / Measure"};
  for (ObjectClass cls : AllClasses()) {
    header.emplace_back(ObjectClassName(cls));
  }
  return header;
}

}  // namespace snor::bench

#endif  // SNOR_BENCH_BENCH_UTIL_H_
