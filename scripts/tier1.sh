#!/usr/bin/env bash
# Tier-1 verify: configure, build, and run the full test suite.
# This is the exact line ROADMAP.md designates as the merge gate.
#
# Optionally, set TEMPRIV_SANITIZE to run a second instrumented build and
# test pass (separate build tree, so the primary build stays pristine):
#   TEMPRIV_SANITIZE=address,undefined scripts/tier1.sh
#   TEMPRIV_SANITIZE=thread scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."
cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

if [[ -n "${TEMPRIV_SANITIZE:-}" ]]; then
  SAN_DIR="build-sanitize"
  echo "== sanitizer pass (${TEMPRIV_SANITIZE}) in ${SAN_DIR} =="
  cmake -B "$SAN_DIR" -S . -DTEMPRIV_SANITIZE="${TEMPRIV_SANITIZE}"
  cmake --build "$SAN_DIR" -j
  # The campaign determinism tests (threaded engine + golden CSV bytes),
  # the shard/merge tests and the kernel/buffer tests are the ones the
  # sanitizers are really for, but the whole suite is cheap enough to run
  # instrumented.
  (cd "$SAN_DIR" && ctest --output-on-failure -j)
fi
