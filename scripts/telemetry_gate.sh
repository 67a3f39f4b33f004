#!/usr/bin/env bash
# Telemetry overhead gate: interleaved rounds of the event-queue hot-path
# microbenchmark (BM_EventQueueScheduleAndPop in bench/micro_engine) between
# a probes-off and a probes-on (-DTEMPRIV_TELEMETRY=ON) build. Fails when the
# median ON time exceeds the median OFF time by TELEMETRY_GATE_PCT percent
# (default 3) or more on any argument. Writes nothing.
#
#   scripts/telemetry_gate.sh [off-dir] [on-dir]   # defaults: build build-telemetry
#   TELEMETRY_GATE_ROUNDS=5 TELEMETRY_GATE_PCT=10 scripts/telemetry_gate.sh  # CI
set -euo pipefail
cd "$(dirname "$0")/.."
OFF_DIR=${1:-build}
ON_DIR=${2:-build-telemetry}
ROUNDS=${TELEMETRY_GATE_ROUNDS:-9}
GATE_PCT=${TELEMETRY_GATE_PCT:-3}
FILTER=BM_EventQueueScheduleAndPop

cmake --build "$OFF_DIR" --target micro_engine -j >/dev/null
cmake --build "$ON_DIR" --target micro_engine -j >/dev/null
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# OFF then ON within every round, so slow drift (thermal, other load)
# biases both sides equally instead of whichever ran last.
echo "== telemetry gate: $ROUNDS interleaved rounds of $FILTER =="
for ((r = 0; r < ROUNDS; ++r)); do
  "./$OFF_DIR/bench/micro_engine" --benchmark_filter="$FILTER" \
    --benchmark_format=json >"$TMP/off-$r.json" 2>/dev/null
  "./$ON_DIR/bench/micro_engine" --benchmark_filter="$FILTER" \
    --benchmark_format=json >"$TMP/on-$r.json" 2>/dev/null
done

python3 - "$TMP" "$GATE_PCT" <<'PY'
import glob, json, sys

tmp, gate = sys.argv[1], float(sys.argv[2])
def medians(side):
    runs = {}
    for path in glob.glob(f"{tmp}/{side}-*.json"):
        for b in json.load(open(path))["benchmarks"]:
            scale = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[b["time_unit"]]
            runs.setdefault(b["name"], []).append(b["real_time"] * scale)
    return {name: sorted(v)[len(v) // 2] for name, v in runs.items()}

off, on = medians("off"), medians("on")
failed = []
for name in sorted(off.keys() & on.keys()):
    overhead = (on[name] / off[name] - 1.0) * 100.0
    print(f"  {name}: off {off[name]:.1f} ns, on {on[name]:.1f} ns, "
          f"overhead {overhead:+.2f}%  [{'PASS' if overhead < gate else 'FAIL'}]")
    if overhead >= gate:
        failed.append(name)
if not off.keys() & on.keys():
    sys.exit("telemetry gate: no benchmark ran on both sides")
if failed:
    sys.exit(f"telemetry gate: overhead >= {gate}% on: {', '.join(failed)}")
print(f"telemetry gate: every benchmark under {gate}% overhead")
PY
