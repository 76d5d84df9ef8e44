#!/usr/bin/env bash
# One-shot check driver: strict build (-Werror), full test suite,
# project lint + static analysis, and (optionally) the sanitizer
# matrix and clang-tidy.
#
# Usage:
#   tools/run_checks.sh              # check preset: -Werror build + ctest
#                                    # + snor_lint + snor_analyze (SARIF to
#                                    # build-check/analyze.sarif; timed
#                                    # cold+warm incremental runs against
#                                    # build-check/analyze-cache)
#   tools/run_checks.sh --analyze-clean  # drop the analyzer summary cache
#                                    # first (forces a cold re-scan)
#   tools/run_checks.sh --asan       # ...plus ASan+UBSan build and test subset
#   tools/run_checks.sh --tsan       # ...plus TSan build and concurrency subset
#   tools/run_checks.sh --clang-tidy # ...plus clang-tidy (no-op if absent)
#   tools/run_checks.sh --all        # everything
set -euo pipefail

cd "$(dirname "$0")/.."

run_asan=0
run_tsan=0
run_tidy=0
analyze_clean=0
for arg in "$@"; do
  case "$arg" in
    --asan) run_asan=1 ;;
    --tsan) run_tsan=1 ;;
    --clang-tidy) run_tidy=1 ;;
    --analyze-clean) analyze_clean=1 ;;
    --all) run_asan=1; run_tsan=1; run_tidy=1 ;;
    -h|--help)
      sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'
      exit 0 ;;
    *) echo "unknown option: $arg (try --help)" >&2; exit 2 ;;
  esac
done

echo "== check: strict -Werror build + tests (incl. discarded-Status compile-fail) + lint =="
cmake --preset check
cmake --build --preset check -j
ctest --preset check -j
./build-check/tools/lint/snor_lint --root .

echo "== analyze: layering + dataflow + concurrency (SARIF) =="
# Blocking: any non-baselined finding fails the run. The SARIF file is the
# machine-readable artifact for CI annotation upload. The summary cache
# under build-check/analyze-cache makes repeat runs incremental; the
# timed cold/warm pair below also gates the incrementality itself (a
# warm run that re-summarizes anything means content-hash keying broke).
# The 64 MiB cache budget exercises LRU eviction on every CI run; the
# tree's summaries fit well inside it, so the warm gate still demands a
# 100% cache hit rate.
analyze_cache=build-check/analyze-cache
if [[ $analyze_clean -eq 1 ]]; then
  rm -rf "$analyze_cache"
fi
cold_start=$(date +%s%N)
./build-check/tools/analyze/snor_analyze --root . \
    --cache-dir "$analyze_cache" \
    --cache-max-bytes $((64 * 1024 * 1024)) \
    --sarif-out build-check/analyze.sarif
cold_ms=$(( ($(date +%s%N) - cold_start) / 1000000 ))
warm_start=$(date +%s%N)
warm_out=$(./build-check/tools/analyze/snor_analyze --root . \
    --cache-dir "$analyze_cache" \
    --cache-max-bytes $((64 * 1024 * 1024)) \
    --sarif-out build-check/analyze.sarif)
warm_ms=$(( ($(date +%s%N) - warm_start) / 1000000 ))
echo "$warm_out"
echo "analyze timing: first run ${cold_ms}ms, warm re-scan ${warm_ms}ms"
if [[ "$warm_out" != *"(0 re-summarized,"* ]]; then
  echo "FAIL: warm analyze re-summarized unchanged TUs: $warm_out" >&2
  exit 1
fi

echo "== trace-smoke: quick bench with tracing + telemetry validation =="
ctest --test-dir build-check -R TraceSmoke --output-on-failure

echo "== serve-smoke: feature store -> warm batched run vs cold run =="
ctest --test-dir build-check -R ServeSmoke --output-on-failure

echo "== load-smoke: service under faulty, deadline-pressured load =="
# Blocking robustness gate: the load generator exits non-zero unless
# every request is answered exactly once and all tallies reconcile.
ctest --test-dir build-check -R LoadServingSmoke --output-on-failure

echo "== introspect-smoke: live /healthz /metricsz /statusz /tracez =="
# Blocking observability gate: the service is started with an ephemeral
# --introspect-port and probed over real TCP while it serves; any
# non-200 answer or invalid JSON body fails the run.
ctest --test-dir build-check -R IntrospectSmoke --output-on-failure

echo "== match-regression: exact identity + ann recall/speedup bands =="
# Blocking matching gate against bench/match_baseline.txt: every Table-2
# approach must stay bit-identical to the cold classifier in exact mode,
# exact-mode match_s must stay within the checked-in ratio band of the
# cold scan, and the ANN path must keep recall@1 and its speedup over
# exact inside the bands. Ratios, not absolute times, so the gate is
# host-independent.
ctest --test-dir build-check -R MatchRegressionGate --output-on-failure

if [[ $run_asan -eq 1 ]]; then
  echo "== asan: AddressSanitizer + UBSan =="
  cmake --preset asan
  cmake --build --preset asan -j
  ctest --preset asan -j
fi

if [[ $run_tsan -eq 1 ]]; then
  echo "== tsan: ThreadSanitizer concurrency subset =="
  cmake --preset tsan
  cmake --build --preset tsan -j
  ctest --preset tsan -j
fi

if [[ $run_tidy -eq 1 ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy: bugprone/performance/concurrency checks =="
    # compile_commands.json is exported by CMAKE_EXPORT_COMPILE_COMMANDS;
    # headers are covered via HeaderFilterRegex in .clang-tidy.
    find src bench examples tools -name '*.cc' -not -path '*testdata*' \
      | xargs clang-tidy -p build-check --quiet
  else
    echo "== clang-tidy: not installed, skipping =="
  fi
fi

echo "All checks passed."
