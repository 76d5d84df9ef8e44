#!/usr/bin/env bash
# One-shot check driver: strict build (-Werror), full test suite,
# project lint + static analysis, and (optionally) the sanitizer
# matrix.
#
# Usage:
#   tools/run_checks.sh              # check preset: -Werror build + ctest
#                                    # + snor_lint + one timed snor_analyze
#   tools/run_checks.sh --asan       # ...plus ASan+UBSan build and test subset
#   tools/run_checks.sh --tsan       # ...plus TSan build and concurrency subset
#   tools/run_checks.sh --all        # everything
set -euo pipefail

cd "$(dirname "$0")/.."

run_asan=0
run_tsan=0
for arg in "$@"; do
  case "$arg" in
    --asan) run_asan=1 ;;
    --tsan) run_tsan=1 ;;
    --all) run_asan=1; run_tsan=1 ;;
    -h|--help)
      sed -n '2,11p' "$0" | sed 's/^# \{0,1\}//'
      exit 0 ;;
    *) echo "unknown option: $arg (try --help)" >&2; exit 2 ;;
  esac
done

echo "== check: strict -Werror build + tests (incl. discarded-Status compile-fail) + lint =="
cmake --preset check
cmake --build --preset check -j
ctest --preset check -j
./build-check/tools/lint/snor_lint --root .

echo "== analyze: layering + dataflow + concurrency =="
# Blocking: any finding fails the run.
analyze_start=$(date +%s%N)
./build-check/tools/analyze/snor_analyze --root .
echo "analyze timing: $(( ($(date +%s%N) - analyze_start) / 1000000 ))ms"

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

echo "All checks passed."
