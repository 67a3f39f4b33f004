#!/usr/bin/env bash
# Sharded campaign throughput: times the same campaign run serially and as a
# forked shard fleet (--shard auto:2, auto:4), verifies the sharded outputs
# are byte-identical to the serial ones, and writes BENCH_campaign.json at
# the repo root with jobs/sec for each mode.
# Schema: see "Sharded campaign benchmark" in EXPERIMENTS.md.
#
#   scripts/bench_campaign.sh [build-dir]            # default: build
#   scripts/bench_campaign.sh --smoke [build-dir]    # CI: 1 run, small sweep
#   BENCH_CAMPAIGN_RUNS=5 scripts/bench_campaign.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
  shift
fi
BUILD_DIR=${1:-build}
if [[ "$SMOKE" == 1 ]]; then
  RUNS=${BENCH_CAMPAIGN_RUNS:-1}
  REPS=2
  PACKETS=200
else
  RUNS=${BENCH_CAMPAIGN_RUNS:-3}
  REPS=4
  PACKETS=1000
fi
OUT=BENCH_campaign.json

cmake --build "$BUILD_DIR" --target tempriv-campaign --target tempriv-merge -j >/dev/null

TIMES=$(mktemp)
WORK=$(mktemp -d)
trap 'rm -rf "$TIMES" "$WORK"' EXIT

# One campaign, three execution modes. The grid sweep keeps the job count
# (points x reps) independent of the figure definitions.
ARGS=(grid --interarrival 2,4,6,8 --scheme rcad,droptail
      --packets "$PACKETS" --reps "$REPS" --quiet)
JOBS=$((4 * 2 * REPS))

run_mode() {
  local mode=$1
  shift
  local dir="$WORK/$mode"
  for _ in $(seq "$RUNS"); do
    rm -rf "$dir"
    T0=$(date +%s.%N)
    "./$BUILD_DIR/tools/tempriv-campaign" "${ARGS[@]}" --out "$dir" "$@" \
      >/dev/null
    T1=$(date +%s.%N)
    echo "$mode $T0 $T1" >>"$TIMES"
  done
}

echo "== campaign throughput ($JOBS jobs, $RUNS run(s) per mode) =="
# Serial means one worker thread: without --jobs the CLI uses every core.
run_mode serial --jobs 1
run_mode auto2 --shard auto:2
run_mode auto4 --shard auto:4

# The speedup numbers are only meaningful if the sharded runs produced the
# same campaign — enforce the byte-identity contract while we're here.
for mode in auto2 auto4; do
  for f in campaign_grid.jsonl campaign_grid.stats.json campaign_grid.csv; do
    cmp -s "$WORK/serial/$f" "$WORK/$mode/$f" || {
      echo "FATAL: $mode $f differs from serial" >&2
      exit 1
    }
  done
done
echo "sharded outputs byte-identical to serial"

python3 - "$TIMES" "$OUT" "$JOBS" "$RUNS" <<'PY'
import json
import sys
import time

times_path, out_path, jobs, runs = sys.argv[1:5]
jobs = int(jobs)

samples = {}
for line in open(times_path):
    mode, t0, t1 = line.split()
    samples.setdefault(mode, []).append(float(t1) - float(t0))

modes = {}
for mode, walls in samples.items():
    walls.sort()
    median = walls[len(walls) // 2]
    modes[mode] = {
        "median_wall_seconds": round(median, 4),
        "jobs_per_second": round(jobs / median, 2) if median > 0 else None,
        "runs": len(walls),
    }

serial = modes.get("serial", {}).get("median_wall_seconds")
for mode, entry in modes.items():
    if mode != "serial" and serial and entry["median_wall_seconds"] > 0:
        entry["speedup_vs_serial"] = round(
            serial / entry["median_wall_seconds"], 2)

doc = {
    "schema": "tempriv-bench-campaign/1",
    "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "campaign_jobs": jobs,
    "runs_per_mode": int(runs),
    "modes": modes,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
for mode in ("serial", "auto2", "auto4"):
    if mode not in modes:
        continue
    entry = modes[mode]
    line = (f"  {mode}: {entry['median_wall_seconds']} s"
            f"  ({entry['jobs_per_second']} jobs/s)")
    if "speedup_vs_serial" in entry:
        line += f"  {entry['speedup_vs_serial']}x vs serial"
    print(line)
PY
