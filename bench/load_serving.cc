// Load generator for the recognition service runtime: replays a large
// query stream from concurrent producer threads against a
// RecognitionService at a configurable arrival rate, with optional fault
// injection (`--fault-rate` arms io-read ingest faults, NaN shape-score
// poisoning, and slow-worker stalls) and per-request deadlines.
//
// Robustness invariants are asserted, not just measured: every submitted
// request must be answered exactly once (OK, shed, timed out, or
// failed), the per-producer tallies must reconcile with the service's
// own accounting and the obs counters, and the run exits non-zero on any
// violation. Latency percentiles (p50/p95/p99), throughput, shed rate,
// and error-budget accounting are emitted into BENCH_load_serving.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/introspect.h"
#include "obs/trace.h"
#include "serve/batch_engine.h"
#include "serve/service.h"
#include "util/fault.h"
#include "util/rng.h"

namespace snor::serve {
namespace {

/// Synthetic feature bank shaped like SNS1 (8-bin histograms, valid Hu
/// moments): large enough to exercise the shard grid, cheap enough to
/// build hundreds of thousands of queries from a recycled pool.
std::vector<ImageFeatures> SyntheticBank(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ImageFeatures> bank(n);
  for (std::size_t i = 0; i < n; ++i) {
    ImageFeatures& f = bank[i];
    f.label = ClassFromIndex(static_cast<int>(i % kNumClasses));
    f.model_id = static_cast<int>(i / kNumClasses);
    f.valid = true;
    for (double& h : f.hu) h = rng.Uniform(-1.0, 1.0);
    f.histogram = ColorHistogram(8);
    for (double& bin : f.histogram.bins()) bin = rng.UniformDouble();
    f.histogram.NormalizeL1();
  }
  return bank;
}

struct LoadConfig {
  std::uint64_t queries = 200000;
  int producers = 8;
  /// Target aggregate arrival rate in queries/s; 0 = open loop. The
  /// default overdrives the single dispatcher (~3x its sustainable
  /// throughput at this gallery size) so admission control, deadline
  /// expiry, and the served head of the queue are all exercised.
  double rate_qps = 2000.0;
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 7;
  double deadline_ms = 50.0;
  std::size_t queue_capacity = 32;
  int max_batch = 16;
  int shards = 0;
  /// Gallery matching mode: exact full scan or ANN candidate retrieval
  /// with exact rerank (`--match-mode exact|ann`).
  MatchMode match_mode = MatchMode::kExact;
  /// Candidates per modality on the ANN path (`--ann-candidates`).
  int ann_candidates = 48;
  /// Availability SLO over answered (non-shed) requests.
  double slo_availability = 0.99;
  /// Introspection server port (-1 disables, 0 = ephemeral). The bound
  /// port is printed as "introspect: listening on 127.0.0.1:<port>".
  int introspect_port = -1;
};

/// Process CPU time in microseconds (user + system, all threads). Used
/// by the trace-overhead probe: tracing cost is *added work*, and CPU
/// time is immune to the host's descheduling stalls, which on a shared
/// 1-vCPU box dwarf the signal in any wall-clock tail statistic.
double ProcessCpuMicros() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

/// One closed-loop calibration round against a fresh service instance:
/// submits `batch` queries back to back, waits for all, and appends the
/// per-batch process CPU time (µs) to `out`. Batched submission makes
/// each sample compute-dominated (one queue handoff per `batch` requests
/// instead of per request), so the p99 reflects the work tracing adds —
/// including any allocation spikes in the trace path — rather than the
/// host's wakeup lottery. The A/B probe for the trace-overhead
/// telemetry; runs before the metrics reset so its counter noise is
/// wiped.
void ClosedLoopRound(const ApproachSpec& spec,
                     const std::vector<ImageFeatures>& gallery,
                     const std::vector<ImageFeatures>& pool,
                     const ServiceOptions& options, std::size_t batches,
                     std::size_t batch, std::vector<double>* out) {
  auto service = RecognitionService::Create(spec, gallery, options);
  if (!service.ok()) return;
  const std::size_t warmup = batches / 10 + 1;
  std::vector<std::future<Result<ServiceReply>>> futures;
  futures.reserve(batch);
  for (std::size_t i = 0; i < batches + warmup; ++i) {
    futures.clear();
    const double cpu_start = ProcessCpuMicros();
    for (std::size_t b = 0; b < batch; ++b) {
      futures.push_back(
          service.value()->Submit(&pool[(i * batch + b) % pool.size()]));
    }
    bool all_ok = true;
    for (auto& future : futures) {
      if (!future.get().ok()) all_ok = false;
    }
    const double us = ProcessCpuMicros() - cpu_start;
    if (all_ok && i >= warmup) out->push_back(us);
  }
  service.value()->Shutdown();
}

/// Percentile over an unsorted sample set (sorts in place).
double SamplePercentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1))];
}

/// Per-producer outcome tally, reconciled against the service stats.
struct Tally {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t deadline = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t other_error = 0;
};

void Producer(RecognitionService& service,
              const std::vector<ImageFeatures>& pool, std::uint64_t count,
              double interval_s, std::uint64_t seed, Tally* tally) {
  // Poisson-ish arrivals: exponential inter-arrival times drawn from a
  // deterministic per-producer stream.
  Rng rng(seed);
  std::vector<std::future<Result<ServiceReply>>> futures;
  futures.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    futures.push_back(service.Submit(&pool[(seed + i) % pool.size()]));
    ++tally->submitted;
    if (interval_s > 0.0) {
      const double wait_s =
          -interval_s * std::log(1.0 - rng.UniformDouble());
      std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
    }
  }
  for (auto& future : futures) {
    const Result<ServiceReply> result = future.get();
    if (result.ok()) {
      ++tally->ok;
      if (result.value().degraded) ++tally->degraded;
    } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
      ++tally->deadline;
    } else if (result.status().code() == StatusCode::kUnavailable) {
      ++tally->unavailable;
    } else {
      ++tally->other_error;
    }
  }
}

/// Direct-engine match probe: classifies a pool slice through an exact
/// engine and through the configured match mode, reporting the
/// configured mode's per-query matching seconds (`match_s`) and its
/// recall@1 (label agreement with the exact engine — 1.0 by definition
/// when the configured mode is exact). Runs before the metrics reset so
/// its counter noise is wiped.
struct MatchProbeResult {
  double match_s = 0.0;
  double recall_at_1 = 1.0;
};

MatchProbeResult MatchProbe(const ApproachSpec& spec,
                            const std::vector<ImageFeatures>& gallery,
                            const std::vector<ImageFeatures>& pool,
                            const BatchEngineOptions& engine_options) {
  MatchProbeResult result;
  BatchEngineOptions exact_options = engine_options;
  exact_options.match_mode = MatchMode::kExact;
  auto exact = BatchEngine::Create(spec, gallery, exact_options);
  auto probe = BatchEngine::Create(spec, gallery, engine_options);
  if (!exact.ok() || !probe.ok()) return result;
  const std::size_t n = std::min<std::size_t>(pool.size(), 512);
  std::vector<const ImageFeatures*> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) batch.push_back(&pool[i]);
  const std::vector<ObjectClass> want = exact.value()->ClassifyBatch(batch);
  std::vector<ObjectClass> got = probe.value()->ClassifyBatch(batch);
  const int reps = snor::bench::QuickMode() ? 3 : 9;
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    got = probe.value()->ClassifyBatch(batch);
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.match_s =
      elapsed_s / (static_cast<double>(reps) * static_cast<double>(n));
  std::size_t agree = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) ++agree;
  }
  result.recall_at_1 = got.empty() ? 0.0
                                   : static_cast<double>(agree) /
                                         static_cast<double>(got.size());
  return result;
}

int Fail(const char* what) {
  std::fprintf(stderr, "load_serving: INVARIANT VIOLATION: %s\n", what);
  return 1;
}

int Run(const LoadConfig& config) {
  using snor::bench::BenchResults;

  const std::vector<ImageFeatures> gallery = SyntheticBank(1024, 2);
  const std::vector<ImageFeatures> pool = SyntheticBank(4096, 3);

  ApproachSpec spec;
  spec.kind = ApproachSpec::Kind::kHybrid;
  spec.alpha = 0.3;
  spec.beta = 0.7;

  ServiceOptions options;
  options.engine.num_shards = config.shards;
  options.engine.match_mode = config.match_mode;
  options.engine.ann.candidates = config.ann_candidates;
  options.queue.capacity = config.queue_capacity;
  options.max_batch = config.max_batch;
  options.default_deadline_ms = config.deadline_ms;
  options.breaker.window = 256;
  options.breaker.min_samples = 128;
  options.breaker.cooldown_ms = 50.0;

  // Tail-keep retention: errors and deadline misses always kept, the
  // slowest requests kept past the latency threshold, 1-in-N sampled
  // otherwise. This is the configuration the overhead claim is about.
  obs::RequestTraceOptions trace_options;
  trace_options.keep_errors = true;
  trace_options.latency_keep_threshold_us = config.deadline_ms * 1000.0 * 0.8;
  trace_options.sample_every = 1000;

  // Options the service refuses (e.g. an ANN candidate budget below 1)
  // fail here, before the probes below print figures for a service
  // that cannot exist.
  if (auto check = RecognitionService::Create(spec, gallery, options);
      !check.ok()) {
    std::fprintf(stderr, "load_serving: %s\n",
                 check.status().ToString().c_str());
    return 1;
  }

  // ---- Match probe: per-query matching seconds for the configured mode
  // and (for ann) recall@1 against the exact engine on the same slice.
  const MatchProbeResult match_probe =
      MatchProbe(spec, gallery, pool, options.engine);
  std::printf("match mode %s: match_s %.3gs/query | recall@1 %.4f\n",
              MatchModeName(config.match_mode), match_probe.match_s,
              match_probe.recall_at_1);

  // ---- Trace-overhead A/B: closed-loop p99 with tracing fully off vs
  // tail-keep tracing on, before the metrics reset wipes the noise.
  // The p99 on a contended host is dominated by rare exogenous scheduler
  // stalls, so a single A/B pass is worthless: each round runs both
  // modes back to back (order alternating to cancel drift) and the
  // reported figure is the median of the per-round p99s per mode.
  const std::size_t calibration_rounds = bench::QuickMode() ? 3 : 7;
  const std::size_t batches_per_round = bench::QuickMode() ? 60 : 150;
  const std::size_t calibration_batch =
      static_cast<std::size_t>(std::max(1, config.max_batch));
  std::vector<double> off_p50s, off_p99s, on_p50s, on_p99s, p99_diffs;
  for (std::size_t round = 0; round < calibration_rounds; ++round) {
    const auto run_off = [&] {
      obs::TraceRecorder::Global().Disable();
      obs::RequestTraceStore::Global().Disable();
      std::vector<double> samples;
      ClosedLoopRound(spec, gallery, pool, options, batches_per_round,
                      calibration_batch, &samples);
      off_p50s.push_back(SamplePercentile(samples, 0.5));
      off_p99s.push_back(SamplePercentile(samples, 0.99));
    };
    const auto run_on = [&] {
      obs::RequestTraceStore::Global().Enable(trace_options);
      std::vector<double> samples;
      ClosedLoopRound(spec, gallery, pool, options, batches_per_round,
                      calibration_batch, &samples);
      on_p50s.push_back(SamplePercentile(samples, 0.5));
      on_p99s.push_back(SamplePercentile(samples, 0.99));
    };
    if (round % 2 == 0) {
      run_off();
      run_on();
    } else {
      run_on();
      run_off();
    }
    p99_diffs.push_back(on_p99s.back() - off_p99s.back());
  }
  const auto median = [](std::vector<double>& v) {
    return SamplePercentile(v, 0.5);
  };
  // Overhead from the median of the *paired* per-round p99 deltas: the
  // two passes of a round run the same query sequence back to back, so
  // data variance cancels within the pair, and residual host
  // interference (SMT contention leaks into CPU accounting) spoils one
  // round's delta, not the median.
  const double trace_off_p99_us = median(off_p99s);
  const double trace_on_p99_us = median(on_p99s);
  const double trace_overhead_pct =
      trace_off_p99_us > 0.0 ? median(p99_diffs) / trace_off_p99_us * 100.0
                             : 0.0;
  std::printf("trace overhead (batch-of-%zu closed loop, cpu-time p99 over "
              "%zu rounds): p50 off %.0fus on %.0fus | p99 off %.0fus on "
              "%.0fus (%+.1f%%)\n",
              calibration_batch, calibration_rounds, median(off_p50s),
              median(on_p50s), trace_off_p99_us, trace_on_p99_us,
              trace_overhead_pct);

  // Reset so counter/histogram snapshots describe exactly this run;
  // tail-keep tracing stays enabled for the main run.
  obs::MetricsRegistry::Global().ResetAll();
  obs::TraceRecorder::Global().Reset();
  obs::RequestTraceStore::Global().Reset();

  auto service = RecognitionService::Create(spec, gallery, options);
  if (!service.ok()) {
    std::fprintf(stderr, "load_serving: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }

  std::printf("queries=%llu producers=%d rate=%s deadline=%.1fms "
              "queue-cap=%zu fault-rate=%.3f\n",
              static_cast<unsigned long long>(config.queries),
              config.producers,
              config.rate_qps > 0.0
                  ? snor::StrFormat("%.0f qps", config.rate_qps).c_str()
                  : "open-loop",
              config.deadline_ms, config.queue_capacity, config.fault_rate);

  // Live introspection: declared after `service` so it stops (and drops
  // its /statusz handler) before the service it reads is destroyed.
  obs::IntrospectServer introspect;
  if (config.introspect_port >= 0) {
    RegisterServiceIntrospection(introspect, *service.value());
    if (!introspect.Start(config.introspect_port)) {
      std::fprintf(stderr, "load_serving: introspect: bind failed on port %d\n",
                   config.introspect_port);
      return 1;
    }
    std::printf("introspect: listening on 127.0.0.1:%d\n", introspect.port());
    std::fflush(stdout);
  }

  // Fault storm: transient ingest failures (retried), NaN-poisoned shape
  // scores (degrade / trip the breaker), and slow workers (stretch tail
  // latency so deadlines actually bite).
  std::vector<std::unique_ptr<ScopedFault>> faults;
  if (config.fault_rate > 0.0) {
    faults.push_back(std::make_unique<ScopedFault>(
        FaultPoint::kIoRead, config.fault_rate, config.fault_seed));
    faults.push_back(std::make_unique<ScopedFault>(
        FaultPoint::kNanScore, config.fault_rate, config.fault_seed + 1));
    faults.push_back(std::make_unique<ScopedFault>(
        FaultPoint::kSlowWorker, config.fault_rate, config.fault_seed + 2));
  }

  const int producers = std::max(1, config.producers);
  const double interval_s =
      config.rate_qps > 0.0 ? producers / config.rate_qps : 0.0;
  std::vector<Tally> tallies(static_cast<std::size_t>(producers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));

  Stopwatch wall;
  for (int p = 0; p < producers; ++p) {
    const std::uint64_t count =
        config.queries / static_cast<std::uint64_t>(producers) +
        (static_cast<std::uint64_t>(p) <
                 config.queries % static_cast<std::uint64_t>(producers)
             ? 1
             : 0);
    threads.emplace_back(Producer, std::ref(*service.value()),
                         std::cref(pool), count, interval_s,
                         static_cast<std::uint64_t>(p) * 7919 + 1,
                         &tallies[static_cast<std::size_t>(p)]);
  }
  for (auto& t : threads) t.join();
  service.value()->Shutdown();
  const double elapsed_s = wall.ElapsedSeconds();
  faults.clear();  // Disarm before reporting.

  // ---- Reconciliation: exactly-once answering, category by category.
  Tally total;
  for (const Tally& t : tallies) {
    total.submitted += t.submitted;
    total.ok += t.ok;
    total.degraded += t.degraded;
    total.deadline += t.deadline;
    total.unavailable += t.unavailable;
    total.other_error += t.other_error;
  }
  const ServiceStats stats = service.value()->stats();
  const RequestQueueStats queue_stats = service.value()->queue_stats();

  if (total.submitted != config.queries) return Fail("submitted != queries");
  if (total.ok + total.deadline + total.unavailable + total.other_error !=
      total.submitted) {
    return Fail("answered != submitted (lost or double-answered requests)");
  }
  if (stats.submitted != total.submitted) {
    return Fail("service submitted != producer submitted");
  }
  if (stats.ok != total.ok) return Fail("service ok != producer ok");
  if (stats.degraded != total.degraded) {
    return Fail("service degraded != producer degraded");
  }
  if (stats.timed_out != total.deadline) {
    return Fail("service timed_out != producer deadline tally");
  }
  if (stats.shed + stats.failed + stats.rejected != total.unavailable) {
    return Fail("service shed+failed+rejected != producer unavailable tally");
  }
  if (total.other_error != 0) return Fail("unexpected internal errors");
  if (stats.ok + stats.shed + stats.timed_out + stats.failed +
          stats.rejected !=
      stats.submitted) {
    return Fail("service outcome categories do not sum to submitted");
  }
  if (queue_stats.shed != stats.shed) {
    return Fail("queue shed counter != service shed counter");
  }
  auto& registry = obs::MetricsRegistry::Global();
  if (registry.counter("serve.queue.shed").value() != stats.shed) {
    return Fail("serve.queue.shed metric != service shed counter");
  }
  if (registry.counter("serve.service.ok").value() != stats.ok) {
    return Fail("serve.service.ok metric != service ok counter");
  }
  if (registry.counter("serve.service.timeouts").value() != stats.timed_out) {
    return Fail("serve.service.timeouts metric != service timeout counter");
  }
  if (stats.ok == 0) return Fail("zero throughput (no request answered OK)");

  // ---- Reporting.
  const auto latency =
      registry.histogram("serve.service.latency_us").snapshot();
  const auto queue_wait = registry.histogram("serve.queue.wait_us").snapshot();
  const double answered =
      static_cast<double>(stats.ok + stats.timed_out + stats.failed);
  const double availability =
      answered > 0.0 ? static_cast<double>(stats.ok) / answered : 0.0;
  const double budget = 1.0 - config.slo_availability;
  const double budget_consumed =
      budget > 0.0 ? (1.0 - availability) / budget : 0.0;
  const double throughput = static_cast<double>(stats.ok) / elapsed_s;
  const double shed_rate =
      static_cast<double>(stats.shed) / static_cast<double>(stats.submitted);

  std::printf("\nsubmitted %llu | ok %llu (degraded %llu) | shed %llu | "
              "timed out %llu | failed %llu | rejected %llu\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.ok),
              static_cast<unsigned long long>(stats.degraded),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.timed_out),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.rejected));
  std::printf("throughput %.0f ok/s | shed rate %.3f | availability %.5f "
              "(SLO %.3f, error budget consumed %.2fx)\n",
              throughput, shed_rate, availability, config.slo_availability,
              budget_consumed);
  std::printf("latency p50 %.0fus p95 %.0fus p99 %.0fus | queue wait p50 "
              "%.0fus p99 %.0fus | batches %llu | breaker trips %llu\n",
              latency.p50, latency.p95, latency.p99, queue_wait.p50,
              queue_wait.p99,
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.breaker_trips));

  const obs::SloMonitor::Snapshot slo = service.value()->slo_snapshot();
  const obs::RequestTraceStore::Stats trace_stats =
      obs::RequestTraceStore::Global().stats();
  std::printf("slo availability %.5f | latency compliance %.5f | worst "
              "burn %.2fx/%.2fx | traces kept %llu of %llu finished\n",
              slo.availability, slo.latency_compliance,
              slo.worst_availability_burn, slo.worst_latency_burn,
              static_cast<unsigned long long>(trace_stats.kept),
              static_cast<unsigned long long>(trace_stats.finished));
  std::printf("all invariants held: every request answered exactly once\n");

  BenchResults telemetry;
  telemetry.emplace_back("submitted", static_cast<double>(stats.submitted));
  telemetry.emplace_back("ok", static_cast<double>(stats.ok));
  telemetry.emplace_back("degraded", static_cast<double>(stats.degraded));
  telemetry.emplace_back("shed", static_cast<double>(stats.shed));
  telemetry.emplace_back("timed_out", static_cast<double>(stats.timed_out));
  telemetry.emplace_back("failed", static_cast<double>(stats.failed));
  telemetry.emplace_back("rejected", static_cast<double>(stats.rejected));
  telemetry.emplace_back("batches", static_cast<double>(stats.batches));
  telemetry.emplace_back("breaker_trips",
                         static_cast<double>(stats.breaker_trips));
  telemetry.emplace_back("elapsed_s", elapsed_s);
  telemetry.emplace_back("throughput_qps", throughput);
  telemetry.emplace_back("shed_rate", shed_rate);
  telemetry.emplace_back("availability", availability);
  telemetry.emplace_back("error_budget_consumed", budget_consumed);
  telemetry.emplace_back("p50_latency_us", latency.p50);
  telemetry.emplace_back("p95_latency_us", latency.p95);
  telemetry.emplace_back("p99_latency_us", latency.p99);
  telemetry.emplace_back("p50_queue_wait_us", queue_wait.p50);
  telemetry.emplace_back("p99_queue_wait_us", queue_wait.p99);
  telemetry.emplace_back("fault_rate", config.fault_rate);
  telemetry.emplace_back("deadline_ms", config.deadline_ms);
  telemetry.emplace_back("slo_availability", slo.availability);
  telemetry.emplace_back("slo_latency_compliance", slo.latency_compliance);
  telemetry.emplace_back("slo_burn_rate", slo.worst_availability_burn);
  telemetry.emplace_back("slo_latency_burn_rate", slo.worst_latency_burn);
  telemetry.emplace_back("traces_kept", static_cast<double>(trace_stats.kept));
  telemetry.emplace_back("traces_finished",
                         static_cast<double>(trace_stats.finished));
  telemetry.emplace_back("trace_off_p99_us", trace_off_p99_us);
  telemetry.emplace_back("trace_on_p99_us", trace_on_p99_us);
  telemetry.emplace_back("trace_overhead_p99_pct", trace_overhead_pct);
  telemetry.emplace_back(
      "match_mode", config.match_mode == MatchMode::kAnn ? 1.0 : 0.0);
  telemetry.emplace_back("match_s", match_probe.match_s);
  telemetry.emplace_back("ann_recall_at_1", match_probe.recall_at_1);
  snor::bench::EmitBenchJson("load_serving", telemetry);
  return 0;
}

}  // namespace
}  // namespace snor::serve

int main(int argc, char** argv) {
  snor::serve::LoadConfig config;
  if (snor::bench::QuickMode()) config.queries = 20000;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // Numeric flags: anything but a whole number (a finite number for
    // the rates and the deadline) is a usage error.
    const auto number = [&](const char* flag, auto* out) {
      const char* value = next(flag);
      if (!snor::ParseFlagValue(value, out)) {
        std::fprintf(stderr, "bad %s %s (want a number)\n", flag, value);
        std::exit(2);
      }
    };
    if (std::strcmp(argv[i], "--queries") == 0) {
      number("--queries", &config.queries);
    } else if (std::strcmp(argv[i], "--producers") == 0) {
      number("--producers", &config.producers);
    } else if (std::strcmp(argv[i], "--rate") == 0) {
      number("--rate", &config.rate_qps);
    } else if (std::strcmp(argv[i], "--fault-rate") == 0) {
      number("--fault-rate", &config.fault_rate);
    } else if (std::strcmp(argv[i], "--fault-seed") == 0) {
      number("--fault-seed", &config.fault_seed);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      number("--deadline-ms", &config.deadline_ms);
    } else if (std::strcmp(argv[i], "--queue-cap") == 0) {
      number("--queue-cap", &config.queue_capacity);
    } else if (std::strcmp(argv[i], "--max-batch") == 0) {
      number("--max-batch", &config.max_batch);
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      number("--shards", &config.shards);
    } else if (std::strcmp(argv[i], "--introspect-port") == 0) {
      number("--introspect-port", &config.introspect_port);
    } else if (std::strcmp(argv[i], "--match-mode") == 0) {
      const char* value = next("--match-mode");
      const auto mode = snor::serve::ParseMatchMode(value);
      if (!mode.ok()) {
        std::fprintf(stderr, "bad --match-mode %s (want exact|ann)\n", value);
        return 2;
      }
      config.match_mode = mode.value();
    } else if (std::strcmp(argv[i], "--ann-candidates") == 0) {
      number("--ann-candidates", &config.ann_candidates);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--queries N] [--producers P] [--rate QPS] "
                   "[--fault-rate R] [--fault-seed S] [--deadline-ms D] "
                   "[--queue-cap C] [--max-batch B] [--shards K] "
                   "[--introspect-port P] [--match-mode exact|ann] "
                   "[--ann-candidates R]\n",
                   argv[0]);
      return 2;
    }
  }
  snor::bench::PrintHeader(
      "Load serving",
      "Admission-controlled recognition service under load + faults");
  snor::Stopwatch sw;
  const int rc = snor::serve::Run(config);
  snor::bench::PrintElapsed(sw);
  return rc;
}
