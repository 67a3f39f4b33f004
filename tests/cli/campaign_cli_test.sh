#!/usr/bin/env bash
# End-to-end CLI test for the sharded campaign pipeline:
#
#   1. usage errors (malformed --jobs/--reps/--seed, bad --shard) exit 2;
#   2. a small grid run as 3 shards + tempriv-merge reproduces the serial
#      JSONL / stats / CSV byte for byte;
#   3. tempriv-merge --check passes a clean shard set and reports a
#      corrupted one (tampered header, missing shard) with exit 1;
#   4. the retired fork-fleet shard mode is a usage error (exit 2) that
#      points at --jobs N and --shard i/N;
#   5. --telemetry writes a snapshot in every mode without perturbing any
#      result byte, with live counts (a nonzero eq.schedule_heap, one
#      campaign.jobs per job) and the job/simulate span; tempriv-merge
#      --telemetry combines shard snapshots into the serial snapshot, key
#      for key (timings aside), and fails when a sibling is missing;
#   6. --help names every sweep, the grid-axis flags are usage errors on a
#      named sweep, and a named ablation writes its golden CSV;
#   7. without --out, both tools write their CSV, JSONL and stats into the
#      current directory and nothing else, and neither --help names another
#      default.
#
# Usage: campaign_cli_test.sh <tempriv-campaign> <tempriv-merge>

set -u

USAGE="usage: campaign_cli_test.sh <tempriv-campaign> <tempriv-merge>"
CAMPAIGN=${1:?$USAGE}
MERGE=${2:?$USAGE}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

FAILURES=0
note_failure() {
  echo "FAIL: $1" >&2
  FAILURES=$((FAILURES + 1))
}

expect_exit() {
  # expect_exit <wanted-code> <description> <cmd...>
  local wanted=$1 what=$2
  shift 2
  "$@" >"$WORK/out.log" 2>"$WORK/err.log"
  local got=$?
  if [ "$got" -ne "$wanted" ]; then
    echo "--- stderr ---" >&2
    cat "$WORK/err.log" >&2
    note_failure "$what: expected exit $wanted, got $got"
  fi
}

expect_same() {
  # expect_same <description> <file-a> <file-b>
  if ! cmp -s "$2" "$3"; then
    note_failure "$1: $2 and $3 differ"
    diff "$2" "$3" | head -5 >&2
  fi
}

# --- 1. usage errors exit 2 with a friendly message ----------------------

expect_exit 2 "malformed --jobs" "$CAMPAIGN" fig2a --jobs 4x --quiet
expect_exit 2 "malformed --reps" "$CAMPAIGN" fig2a --reps 1.5 --quiet
expect_exit 2 "negative --seed" "$CAMPAIGN" fig2a --seed -1 --quiet
expect_exit 2 "empty --jobs" "$CAMPAIGN" fig2a --jobs '' --quiet
expect_exit 2 "overflowing --seed" "$CAMPAIGN" fig2a --seed 99999999999999999999 --quiet
expect_exit 2 "bad shard index" "$CAMPAIGN" fig2a --shard 3/2 --quiet
expect_exit 2 "bad shard syntax" "$CAMPAIGN" fig2a --shard 1:2 --quiet
expect_exit 2 "unknown sweep" "$CAMPAIGN" nosuchsweep --quiet
expect_exit 2 "unknown option" "$CAMPAIGN" fig2a --frobnicate --quiet
expect_exit 2 "missing value" "$CAMPAIGN" fig2a --jobs
expect_exit 0 "--help" "$CAMPAIGN" --help
# One scheme vocabulary with scenario_cli: every name either CLI accepts
# parses here, and an unknown one is a usage error.
expect_exit 0 "grid --scheme (every name)" "$CAMPAIGN" grid \
  --scheme nodelay,no-delay,unlimited,droptail,drop-tail,rcad \
  --interarrival 4 --packets 5 --quiet --out "$WORK/schemes"
expect_exit 2 "unknown --scheme" "$CAMPAIGN" grid --scheme nosuch --quiet
grep -q "unknown scheme: nosuch" "$WORK/err.log" ||
  note_failure "unknown --scheme: no message naming the scheme"
if ! grep -q "wants a non-negative integer" "$WORK/err.log" 2>/dev/null; then
  "$CAMPAIGN" fig2a --jobs 4x --quiet 2>"$WORK/err.log"
  grep -q "wants a non-negative integer" "$WORK/err.log" ||
    note_failure "malformed --jobs: friendly message missing"
fi

# --- 2. serial vs 3 shards + merge, byte for byte ------------------------

GRID_ARGS=(grid --interarrival 2,4 --scheme rcad,droptail --packets 80 --reps 2 --quiet)

expect_exit 0 "serial grid run" \
  "$CAMPAIGN" "${GRID_ARGS[@]}" --out "$WORK/serial"
for i in 0 1 2; do
  expect_exit 0 "shard $i/3 run" \
    "$CAMPAIGN" "${GRID_ARGS[@]}" --out "$WORK/shards" --shard "$i/3"
done

SHARDS=("$WORK"/shards/campaign_grid.shard-*-of-3.jsonl)
expect_exit 0 "merge --check (clean)" "$MERGE" --check "${SHARDS[@]}"
expect_exit 0 "merge" "$MERGE" --out "$WORK/merged" "${SHARDS[@]}"

for f in campaign_grid.jsonl campaign_grid.stats.json campaign_grid.csv; do
  expect_same "merge vs serial ($f)" "$WORK/serial/$f" "$WORK/merged/$f"
done

# --- 3. --check on corrupted shard sets ----------------------------------

# Missing shard: only two of the three artifacts.
expect_exit 1 "merge --check (missing shard)" \
  "$MERGE" --check "${SHARDS[0]}" "${SHARDS[1]}"

# Tampered header: flip the base seed in shard 1's header line.
mkdir -p "$WORK/corrupt"
for i in 0 1 2; do
  cp "$WORK/shards/campaign_grid.shard-$i-of-3.jsonl" \
     "$WORK/shards/campaign_grid.shard-$i-of-3.stats.json" "$WORK/corrupt/"
done
sed -i '1s/"base_seed":[0-9]*/"base_seed":424242/' \
  "$WORK/corrupt/campaign_grid.shard-1-of-3.jsonl"
expect_exit 1 "merge --check (tampered base seed)" \
  "$MERGE" --check "$WORK/corrupt"/campaign_grid.shard-*-of-3.jsonl
"$MERGE" --check "$WORK/corrupt"/campaign_grid.shard-*-of-3.jsonl \
  2>"$WORK/check.log"
grep -q "base_seed" "$WORK/check.log" ||
  note_failure "--check did not name the tampered base_seed"

# Duplicate shard: the same index twice.
expect_exit 1 "merge --check (duplicate shard)" \
  "$MERGE" --check "${SHARDS[0]}" "${SHARDS[0]}" "${SHARDS[1]}" "${SHARDS[2]}"

# --check writes nothing even when the set is clean.
[ ! -e "$WORK/shards/campaign_grid.jsonl" ] ||
  note_failure "--check wrote an output file"

# --- 4. the fork-fleet shard mode is gone ---------------------------------

# One host runs a campaign on --jobs N threads; --shard i/N spreads it over
# hosts. The old "auto" shard counts must fail as usage errors that say so,
# and must write no result.
FLEET=auto
for n in 0 2; do
  expect_exit 2 "--shard $FLEET:$n" \
    "$CAMPAIGN" "${GRID_ARGS[@]}" --out "$WORK/auto" --shard "$FLEET:$n"
  { grep -q -- "--jobs N" "$WORK/err.log" &&
    grep -q -- "--shard i/N" "$WORK/err.log"; } ||
    note_failure "--shard $FLEET:$n: message does not name --jobs N and --shard i/N"
done
[ ! -e "$WORK/auto" ] || note_failure "--shard $FLEET:2 wrote results"

# --- 5. --telemetry snapshots: present, well-formed, result-neutral ------

# Serial run with telemetry: snapshot written, results byte-identical to
# the telemetry-free serial run of section 2.
expect_exit 0 "serial run with --telemetry" \
  "$CAMPAIGN" "${GRID_ARGS[@]}" --out "$WORK/tserial" \
  --telemetry "$WORK/tserial/grid.telemetry.json"
for f in campaign_grid.jsonl campaign_grid.stats.json campaign_grid.csv; do
  expect_same "--telemetry vs plain serial ($f)" \
    "$WORK/serial/$f" "$WORK/tserial/$f"
done
SNAPSHOT="$WORK/tserial/grid.telemetry.json"
for key in eq.schedule_heap buf.occupancy mem.network_bytes job/simulate; do
  grep -q "\"$key\"" "$SNAPSHOT" ||
    note_failure "serial telemetry snapshot lacks \"$key\""
done
# Live counts: the grid is 2 interarrivals x 2 schemes x 2 reps = 8 jobs.
grep -q '"eq.schedule_heap": [1-9]' "$SNAPSHOT" ||
  note_failure "serial telemetry snapshot has no eq.schedule_heap count"
grep -q '"campaign.jobs": 8,' "$SNAPSHOT" ||
  note_failure "serial telemetry snapshot does not count 8 campaign.jobs"

# The snapshot's deterministic part: every counter, every gauge and
# buf.occupancy. Spans and campaign.job_wall_us are timings.
counts_of() {
  sed -e '/"spans"/,$d' -e '/"campaign.job_wall_us"/d' "$1"
}

# Two explicit shards writing .telemetry.json siblings, then a merge that
# combines them. The sibling paths follow the shard JSONL naming so
# tempriv-merge finds them by convention.
for i in 0 1; do
  expect_exit 0 "shard $i/2 run with --telemetry" \
    "$CAMPAIGN" "${GRID_ARGS[@]}" --out "$WORK/tshards" --shard "$i/2" \
    --telemetry "$WORK/tshards/campaign_grid.shard-$i-of-2.telemetry.json"
done
expect_exit 0 "merge with --telemetry" \
  "$MERGE" --out "$WORK/tmerged" \
  --telemetry "$WORK/tmerged/grid.telemetry.json" \
  "$WORK"/tshards/campaign_grid.shard-*-of-2.jsonl
for f in campaign_grid.jsonl campaign_grid.stats.json campaign_grid.csv; do
  expect_same "telemetry merge vs serial ($f)" \
    "$WORK/serial/$f" "$WORK/tmerged/$f"
done
counts_of "$SNAPSHOT" >"$WORK/serial.counts"
counts_of "$WORK/tmerged/grid.telemetry.json" >"$WORK/merged.counts"
expect_same "telemetry counts, 2-shard merge vs serial" \
  "$WORK/serial.counts" "$WORK/merged.counts"
grep -q '"merge"' "$WORK/tmerged/grid.telemetry.json" ||
  note_failure "merged telemetry snapshot lacks the merge span"

# A shard set without telemetry siblings cannot honor --telemetry.
expect_exit 1 "merge --telemetry without siblings" \
  "$MERGE" --out "$WORK/tfail" --telemetry "$WORK/tfail/grid.telemetry.json" \
  "${SHARDS[@]}"

# The fork-fleet mode stays a usage error with --telemetry too, and writes
# no snapshot.
expect_exit 2 "--shard $FLEET:2 with --telemetry" \
  "$CAMPAIGN" "${GRID_ARGS[@]}" --out "$WORK/tauto" --shard "$FLEET:2" \
  --telemetry "$WORK/tauto/grid.telemetry.json"
[ ! -e "$WORK/tauto/grid.telemetry.json" ] ||
  note_failure "--shard $FLEET:2 wrote a telemetry snapshot"

# --- 6. named sweeps: listed, fixed, golden ------------------------------

"$CAMPAIGN" --help >"$WORK/help.txt"
for name in fig2a fig2b fig3 buffer victim decomposition trunk adversaries \
            traffic; do
  grep -qw "$name" "$WORK/help.txt" || note_failure "--help does not name $name"
done

# A named sweep's points are fixed: each grid axis is refused, not ignored.
for axis in "--interarrival 4" "--scheme nodelay" "--packets 5" \
            "--mean-delay 1" "--buffer-slots 3"; do
  # shellcheck disable=SC2086  # the flag and its value are two words
  expect_exit 2 "fig3 $axis" "$CAMPAIGN" fig3 $axis --quiet --out "$WORK/axis"
done
[ ! -e "$WORK/axis" ] || note_failure "a refused grid axis wrote results"

GOLDEN="$(dirname "$0")/../golden"
expect_exit 0 "victim sweep" "$CAMPAIGN" victim --quiet --out "$WORK/victim"
expect_same "victim sweep vs golden" \
  "$GOLDEN/ablation_victim_policy.csv" "$WORK/victim/ablation_victim_policy.csv"

# --- 7. without --out, results land in the current directory ------------

# The serial grid run of section 2, and the merge of its three shards, each
# from an empty working directory: the same three files as with --out, and
# no results directory of the tools' own.
for run in campaign merge; do
  mkdir "$WORK/cwd_$run"
  if [ "$run" = campaign ]; then
    (cd "$WORK/cwd_$run" && "$CAMPAIGN" "${GRID_ARGS[@]}") >"$WORK/out.log" 2>&1
  else
    (cd "$WORK/cwd_$run" && "$MERGE" "${SHARDS[@]}") >"$WORK/out.log" 2>&1
  fi || note_failure "$run without --out: nonzero exit"
  for f in campaign_grid.jsonl campaign_grid.stats.json campaign_grid.csv; do
    expect_same "$run without --out ($f)" "$WORK/serial/$f" "$WORK/cwd_$run/$f"
  done
  written=$(cd "$WORK/cwd_$run" && ls -A | tr '\n' ' ')
  [ "$written" = "campaign_grid.csv campaign_grid.jsonl campaign_grid.stats.json " ] ||
    note_failure "$run without --out wrote: $written"
done
for tool in "$CAMPAIGN" "$MERGE"; do
  "$tool" --help >"$WORK/help.txt"
  ! grep -E -q 'bench_results|TEMPRIV_RESULTS_DIR' "$WORK/help.txt" ||
    note_failure "$(basename "$tool") --help names another results directory"
done

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES failure(s)" >&2
  exit 1
fi
echo "campaign CLI test: all checks passed"
