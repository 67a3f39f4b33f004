#!/usr/bin/env bash
# Every example runs, exits 0 and prints its closing claim:
#
#   1. quickstart's unlimited-buffer and RCAD MSEs equal the 1/lambda = 2
#      row of the fig2a golden CSV (it runs the same paper scenario);
#   2. habitat_monitoring concludes that temporal ambiguity becomes
#      spatial ambiguity;
#   3. tactical_tracking delivers all 4000 packets;
#   4. buffer_planning concludes that privacy and buffer utilization
#      conflict.
#
# Each runs from a fresh temporary directory.
#
# Usage: examples_test.sh <fig2a golden csv> <quickstart> <habitat_monitoring>
#                         <tactical_tracking> <buffer_planning>

set -u
USAGE="usage: examples_test.sh <fig2a csv> <quickstart> <habitat_monitoring> <tactical_tracking> <buffer_planning>"
GOLDEN=${1:?$USAGE}
QUICKSTART=${2:?$USAGE}
HABITAT=${3:?$USAGE}
TACTICAL=${4:?$USAGE}
PLANNING=${5:?$USAGE}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILURES=0
fail() { echo "FAIL: $1" >&2; FAILURES=$((FAILURES + 1)); }

run() {  # run <name> <binary>: its stdout in $WORK/<name>.out; 1 if it failed
  local dir="$WORK/$1"
  mkdir "$dir"
  if ! (cd "$dir" && "$2") >"$WORK/$1.out"; then
    fail "$1 exited nonzero"
    return 1
  fi
}

claims() {  # claims <name> <text>: the output must contain the text
  grep -qF -- "$2" "$WORK/$1.out" || fail "$1 did not print '$2'"
}

# --- 1. quickstart reproduces the fig2a golden's high-traffic row ----------
if run quickstart "$QUICKSTART"; then
  claims quickstart "RCAD combines high MSE"
  expected=$(awk -F, '$1 == "2.0" { print $3, $4 }' "$GOLDEN")
  got=$(awk '$1 == "delay+unlimited-buffers" { u = $2 }
             $1 == "delay+limited-buffers(RCAD)" { r = $2 }
             END { print u, r }' "$WORK/quickstart.out")
  if [ -z "$expected" ] || [ "$got" != "$expected" ]; then
    fail "quickstart MSEs '$got', golden 2.0 row '$expected'"
  fi
fi

# --- 2-4. the other examples' closing claims --------------------------------
run habitat_monitoring "$HABITAT" &&
  claims habitat_monitoring "Temporal ambiguity becomes spatial ambiguity"
run tactical_tracking "$TACTICAL" &&
  claims tactical_tracking "delivered 4000/4000"
run buffer_planning "$PLANNING" &&
  claims buffer_planning "buffer utilization are conflicting objectives"

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES example check(s) failed" >&2
  exit 1
fi
echo "examples: all checks passed"
