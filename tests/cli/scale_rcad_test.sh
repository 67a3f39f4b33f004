#!/usr/bin/env bash
# scale_rcad structural gates and usage errors, through the real binary:
#
#   1. a 10⁴-node full RCAD run delivers every packet it originates, and
#      its event kernel ran every event it scheduled: scheduled_heap +
#      scheduled_fifo == events at the end of the run;
#   2. a 10⁵-node build stays within 256 bytes per node (graph + network)
#      and builds the pinned graph: its edge count, unreachable count and
#      graph_digest (FNV-1a over the CSR index and the routing tree) are
#      the values recorded at seed 1, so any change to the rows or the
#      routes of a large geometric field fails here;
#   3. every malformed or out-of-range value exits 2 with a message, never
#      aborts and never runs with a value read as 0.
#
# Usage: scale_rcad_test.sh <scale_rcad>

set -u
BIN=${1:?usage: scale_rcad_test.sh <scale_rcad>}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILURES=0
fail() { echo "FAIL: $1" >&2; FAILURES=$((FAILURES + 1)); }

field() {  # field <name> <json-file>: the value of a top-level number
  sed -n "s/^  \"$1\": \([0-9.]*\),\{0,1\}$/\1/p" "$2"
}

text() {  # text <name> <json-file>: the value of a top-level string
  sed -n "s/^  \"$1\": \"\([^\"]*\)\",\{0,1\}$/\1/p" "$2"
}

# --- 1. every packet delivered, every event run, on the 10⁴-node full run --
if "$BIN" --n 10000 --sinks 8 --sources 256 --packets 20 --seed 1 \
    >"$WORK/full.json"; then
  originated=$(field originated "$WORK/full.json")
  delivered=$(field delivered "$WORK/full.json")
  if [ -z "$originated" ] || [ "$originated" -eq 0 ] ||
      [ "$delivered" != "$originated" ]; then
    fail "10^4 full run: delivered '$delivered' of '$originated' originated"
  fi
  events=$(field events "$WORK/full.json")
  heap=$(field scheduled_heap "$WORK/full.json")
  fifo=$(field scheduled_fifo "$WORK/full.json")
  if [ -z "$events" ] || [ -z "$heap" ] || [ -z "$fifo" ] ||
      [ "$events" -eq 0 ] || [ $((heap + fifo)) -ne "$events" ]; then
    fail "10^4 full run: scheduled_heap '$heap' + scheduled_fifo '$fifo' != events '$events'"
  fi
else
  fail "10^4 full run exited $?"
fi

# --- 2. bytes_per_node <= 256 and the pinned graph on the 10⁵-node build ---
if "$BIN" --n 100000 --sinks 32 --mode build --seed 1 >"$WORK/build.json"; then
  bytes=$(field bytes_per_node "$WORK/build.json")
  if [ -z "$bytes" ] || ! awk -v b="$bytes" 'BEGIN { exit !(b <= 256) }'; then
    fail "10^5 build: bytes_per_node '$bytes' > 256"
  fi
  edges=$(field edges "$WORK/build.json")
  unreachable=$(field unreachable "$WORK/build.json")
  digest=$(text graph_digest "$WORK/build.json")
  if [ "$edges" != 506943 ] || [ "$unreachable" != 15 ] ||
      [ "$digest" != fe53b99f9e0ea6ed ]; then
    fail "10^5 build: edges '$edges' unreachable '$unreachable' graph_digest '$digest'; want 506943, 15, fe53b99f9e0ea6ed"
  fi
else
  fail "10^5 build exited $?"
fi

# --- 3. malformed or out-of-range input exits 2 ----------------------------
for args in "--capacity 0" "--mean-delay 0" "--mean-delay -1" \
    "--interval nan" "--interval 0" "--interval ' 4'" "--radius inf" \
    "--packets x" "--packets 4294967296" "--sources x" "--seed x" \
    "--seed -1" "--n x" "--n ''" "--sinks 100" "--mode neither"; do
  eval "\"\$BIN\" --n 100 --sinks 2 $args" >/dev/null 2>"$WORK/err.log"
  got=$?
  if [ "$got" -ne 2 ] || ! grep -q "^scale_rcad: " "$WORK/err.log"; then
    fail "$args: want exit 2 and a message, got $got"
    cat "$WORK/err.log" >&2
  fi
done

[ "$FAILURES" -eq 0 ] || { echo "$FAILURES check(s) failed" >&2; exit 1; }
echo "scale_rcad gates and usage errors: all checks passed"
