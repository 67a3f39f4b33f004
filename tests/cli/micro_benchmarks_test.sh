#!/usr/bin/env bash
# Smoke run of the google-benchmark binaries: each runs every benchmark it
# registers once, briefly (--benchmark_min_time=0.01 s), exits 0 and prints
# every BM_ name its source registers. Timings are not checked.
#
# Usage: micro_benchmarks_test.sh <binary> <source.cpp> [<binary> <source.cpp>]...

set -u
USAGE="usage: micro_benchmarks_test.sh <binary> <source.cpp> [<binary> <source.cpp>]..."
[ $# -ge 2 ] && [ $(($# % 2)) -eq 0 ] || { echo "$USAGE" >&2; exit 2; }
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILURES=0
fail() { echo "FAIL: $1" >&2; FAILURES=$((FAILURES + 1)); }

while [ $# -ge 2 ]; do
  BINARY=$1 SOURCE=$2
  shift 2
  NAME=$(basename "$BINARY")
  if ! (cd "$WORK" && "$BINARY" --benchmark_min_time=0.01) >"$WORK/$NAME.out"; then
    fail "$NAME exited nonzero"
    continue
  fi
  NAMES=$(grep -o 'BENCHMARK(BM_[A-Za-z0-9_]*' "$SOURCE" | sed 's/^BENCHMARK(//')
  [ -n "$NAMES" ] || fail "$SOURCE registers no BM_ benchmark"
  for bm in $NAMES; do
    grep -q "^$bm[/ ]" "$WORK/$NAME.out" || fail "$NAME did not run $bm"
  done
done

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES failure(s)" >&2
  exit 1
fi
echo "micro benchmarks: all ran"
