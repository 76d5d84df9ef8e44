#!/usr/bin/env bash
# Golden-table check (registered as the GoldenTables ctest): runs the
# quick-mode reproductions of Tables 2, 5, 6, 7 and 8 and diffs their
# table rows (the lines starting with '|') against bench/golden/. Tables
# 2 and 8 also run twice against a fresh --feature-store directory: the
# cold run that fills the store and the warm run that reads it back must
# both print the golden rows. Any digit that moves fails the check.
#
# Usage: golden_tables.sh BENCH_BIN_DIR GOLDEN_DIR WORKDIR
set -euo pipefail

bin_dir="$1"
golden_dir="$2"
workdir="$3"

# The benches write BENCH_<name>.json into the current directory.
rm -rf "$workdir"
mkdir -p "$workdir"
cd "$workdir"

status=0
# check NAME RUN_LABEL [BENCH_ARGS...]
check() {
  local name="$1" label="$2"
  shift 2
  SNOR_QUICK=1 "$bin_dir/$name" "$@" > "$label.log"
  grep '^|' "$label.log" > "$label.rows" || true
  if ! diff -u "$golden_dir/$name.txt" "$label.rows"; then
    echo "golden mismatch: $label" >&2
    status=1
  fi
}

for name in table2_shape_color table5_shape_classwise table6_color_classwise \
            table7_hybrid_classwise table8_hybrid_sns; do
  check "$name" "$name"
done
for name in table2_shape_color table8_hybrid_sns; do
  mkdir -p "$workdir/store_$name"
  check "$name" "$name.store_cold" --feature-store "$workdir/store_$name"
  check "$name" "$name.store_warm" --feature-store "$workdir/store_$name"
done

if [[ $status -eq 0 ]]; then
  echo "all golden tables match"
fi
exit "$status"
