#!/usr/bin/env bash
# scenario_cli usage errors: every malformed or out-of-range number prints
# "bad value for <flag>" and exits 2, never an uncaught exception; an
# unknown scheme or source name exits 2 with a message; every scheme name
# tempriv-campaign accepts works here too; a well-formed run still exits 0.
#
# Usage: scenario_cli_test.sh <scenario_cli>

set -u
CLI=${1:?usage: scenario_cli_test.sh <scenario_cli>}
ERR=$(mktemp)
trap 'rm -f "$ERR"' EXIT
FAILURES=0

expect_bad_value() {  # expect_bad_value <flag> <value>
  "$CLI" "$1" "$2" --packets 10 >/dev/null 2>"$ERR"
  local got=$?
  if [ "$got" -ne 2 ] || ! grep -qF "bad value for $1" "$ERR"; then
    echo "FAIL: $1 '$2': want exit 2 and 'bad value for $1', got $got" >&2
    cat "$ERR" >&2
    FAILURES=$((FAILURES + 1))
  fi
}

for args in "--seed 99999999999999999999999" "--hops 99999999999" \
    "--hops 15,5x" "--packets 5x" "--packets 99999999999" "--buffer -1" \
    "--shared-tail 70000" "--interarrival 2x" "--mean-delay 1e999"; do
  expect_bad_value $args
done

# Non-finite numbers and leading blanks are malformed too, for every real.
for flag in --interarrival --mean-delay --sink-weighting --jitter --tx-delay; do
  for value in nan inf ' 4'; do
    expect_bad_value "$flag" "$value"
  done
done

# One scheme vocabulary with tempriv-campaign (workload::scheme_from_string).
for scheme in nodelay no-delay unlimited droptail drop-tail rcad; do
  if ! "$CLI" --scheme "$scheme" --packets 10 --hops 5 >/dev/null 2>"$ERR"; then
    echo "FAIL: --scheme $scheme did not exit 0" >&2
    cat "$ERR" >&2
    FAILURES=$((FAILURES + 1))
  fi
done
expect_unknown() {  # expect_unknown <flag> <message>
  "$CLI" "$1" nosuch --packets 10 >/dev/null 2>"$ERR"
  local got=$?
  if [ "$got" -ne 2 ] || ! grep -qF "$2: nosuch" "$ERR"; then
    echo "FAIL: $1 nosuch: want exit 2 and '$2: nosuch', got $got" >&2
    cat "$ERR" >&2
    FAILURES=$((FAILURES + 1))
  fi
}
expect_unknown --scheme "unknown scheme"
expect_unknown --source "unknown source kind"

if ! "$CLI" --packets 10 --hops 5,6 >/dev/null 2>"$ERR"; then
  echo "FAIL: a well-formed run did not exit 0" >&2
  cat "$ERR" >&2
  FAILURES=$((FAILURES + 1))
fi

[ "$FAILURES" -eq 0 ] || { echo "$FAILURES check(s) failed" >&2; exit 1; }
echo "scenario_cli usage errors: all checks passed"
