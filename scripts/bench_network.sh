#!/usr/bin/env bash
# Packet-path benchmark trajectory: runs the micro_packet_path suite
# (google-benchmark, JSON aggregates) plus timed end-to-end fig2a/fig2b
# campaign runs (serial, --jobs 1, medians over $BENCH_E2E_RUNS reps), and
# writes BENCH_network.json at the repo root. When the committed pre-rewrite
# baselines bench_results/network_before.json (micro) and
# bench_results/network_before_e2e.json (end-to-end medians) are present,
# speedups are computed against their medians; same for the PR-4 captures
# bench_results/network_pr4{,_e2e}.json, which also drive the PR-8
# acceptance gates reported under "targets".
# Schema: see "Packet-path benchmark trajectory" in EXPERIMENTS.md.
#
#   scripts/bench_network.sh [build-dir]            # default: build
#   scripts/bench_network.sh --smoke [build-dir]    # CI: 1 rep, no baseline gate
#   BENCH_REPETITIONS=9 BENCH_E2E_RUNS=9 scripts/bench_network.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
  shift
fi
BUILD_DIR=${1:-build}
if [[ "$SMOKE" == 1 ]]; then
  REPS=${BENCH_REPETITIONS:-1}
  E2E_RUNS=${BENCH_E2E_RUNS:-1}
else
  REPS=${BENCH_REPETITIONS:-5}
  E2E_RUNS=${BENCH_E2E_RUNS:-5}
fi
BASELINE=bench_results/network_before.json
BASELINE_E2E=bench_results/network_before_e2e.json
BASELINE_PR4=bench_results/network_pr4.json
BASELINE_PR4_E2E=bench_results/network_pr4_e2e.json
OUT=BENCH_network.json

cmake --build "$BUILD_DIR" --target micro_packet_path tempriv-campaign -j >/dev/null

MICRO_JSON=$(mktemp)
E2E_TIMES=$(mktemp)
CAMPAIGN_DIR=$(mktemp -d)
trap 'rm -rf "$MICRO_JSON" "$E2E_TIMES" "$CAMPAIGN_DIR"' EXIT

echo "== micro_packet_path ($REPS repetitions) =="
"./$BUILD_DIR/bench/micro_packet_path" \
  --benchmark_repetitions="$REPS" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json >"$MICRO_JSON"

echo "== end-to-end scenario runs ($E2E_RUNS reps each) =="
for sweep in fig2a fig2b; do
  for _ in $(seq "$E2E_RUNS"); do
    T0=$(date +%s.%N)
    "./$BUILD_DIR/tools/tempriv-campaign" "$sweep" --quiet --jobs 1 \
      --out "$CAMPAIGN_DIR" >/dev/null
    T1=$(date +%s.%N)
    echo "$sweep $T0 $T1" >>"$E2E_TIMES"
  done
done

python3 - "$MICRO_JSON" "$E2E_TIMES" "$BASELINE" "$BASELINE_E2E" "$OUT" \
  "$REPS" "$E2E_RUNS" "$BASELINE_PR4" "$BASELINE_PR4_E2E" <<'PY'
import json
import sys
import time

(micro_path, e2e_path, baseline_path, baseline_e2e_path, out_path,
 reps, e2e_runs, pr4_path, pr4_e2e_path) = sys.argv[1:10]
micro = json.load(open(micro_path))

def medians(report):
    """name -> {median_us, items_per_second?, allocs_per_op?} from a
    google-benchmark JSON report (aggregates if present, else raw runs)."""
    runs = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "median":
            continue
        name = b.get("run_name", b["name"]).split("/repeats")[0]
        entry = runs.setdefault(name, {"samples_us": []})
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}[unit]
        entry["samples_us"].append(b["real_time"] * scale)
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        if "allocs_per_op" in b:
            entry["allocs_per_op"] = b["allocs_per_op"]
    out = {}
    for name, entry in runs.items():
        samples = sorted(entry.pop("samples_us"))
        entry["median_us"] = round(samples[len(samples) // 2], 3)
        out[name] = entry
    return out

current = medians(micro)

# sweep -> median wall seconds over the timed campaign runs.
e2e_samples = {}
for line in open(e2e_path):
    sweep, t0, t1 = line.split()
    e2e_samples.setdefault(sweep, []).append(float(t1) - float(t0))
e2e = {}
for sweep, samples in sorted(e2e_samples.items()):
    samples.sort()
    e2e[sweep] = {
        "median_wall_seconds": round(samples[len(samples) // 2], 4),
        "runs": len(samples),
        "jobs": 1,
    }

def load(path):
    try:
        return json.load(open(path))
    except OSError:
        return None

baseline = load(baseline_path)
baseline_medians = medians(baseline) if baseline is not None else None
speedup = {}
if baseline_medians:
    for name, entry in current.items():
        if name in baseline_medians and entry["median_us"] > 0:
            speedup[name] = round(
                baseline_medians[name]["median_us"] / entry["median_us"], 2)

baseline_e2e = load(baseline_e2e_path)
e2e_speedup = {}
if baseline_e2e:
    for sweep, entry in e2e.items():
        before = baseline_e2e.get("e2e", {}).get(sweep, {})
        if before.get("median_wall_seconds") and entry["median_wall_seconds"] > 0:
            e2e_speedup[sweep] = round(
                before["median_wall_seconds"] / entry["median_wall_seconds"], 2)

pr4 = load(pr4_path)
pr4_medians = medians(pr4) if pr4 is not None else None
speedup_pr4 = {}
if pr4_medians:
    for name, entry in current.items():
        if name in pr4_medians and entry["median_us"] > 0:
            speedup_pr4[name] = round(
                pr4_medians[name]["median_us"] / entry["median_us"], 2)

pr4_e2e = load(pr4_e2e_path)
e2e_speedup_pr4 = {}
if pr4_e2e:
    for sweep, entry in e2e.items():
        before = pr4_e2e.get("e2e", {}).get(sweep, {})
        if before.get("median_wall_seconds") and entry["median_wall_seconds"] > 0:
            e2e_speedup_pr4[sweep] = round(
                before["median_wall_seconds"] / entry["median_wall_seconds"], 2)

# PR-8 acceptance gates, evaluated against the per-item rates (items =
# packets x hops for the forwarding benchmarks) and the PR-4 end-to-end
# medians.
def per_item_ns(name):
    ips = current.get(name, {}).get("items_per_second")
    return round(1e9 / ips, 1) if ips else None

targets = {
    "forward_per_hop_ns": {
        "target": "< 100",
        "measured": per_item_ns("BM_ForwardPerHop"),
    },
}
for sweep in ("fig2a", "fig2b"):
    if sweep in e2e_speedup_pr4:
        targets[f"e2e_{sweep}_speedup_vs_pr4"] = {
            "target": ">= 1.3",
            "measured": e2e_speedup_pr4[sweep],
        }
for gate in targets.values():
    if gate["measured"] is not None:
        op, bound = gate["target"].split()
        ok = (gate["measured"] < float(bound) if op == "<"
              else gate["measured"] >= float(bound))
        gate["pass"] = bool(ok)

doc = {
    "schema": "tempriv-bench-network/1",
    "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "repetitions": int(reps),
    "e2e_runs": int(e2e_runs),
    "context": micro.get("context", {}),
    "benchmarks": current,
    "e2e": e2e,
    "targets": targets,
}
if baseline_medians is not None:
    doc["baseline"] = {
        "source": baseline_path,
        "benchmarks": {n: {"median_us": e["median_us"]}
                       for n, e in baseline_medians.items()},
    }
    doc["speedup_vs_baseline"] = speedup
if baseline_e2e is not None:
    doc["baseline_e2e"] = {
        "source": baseline_e2e_path,
        "e2e": baseline_e2e.get("e2e", {}),
    }
    doc["e2e_speedup_vs_baseline"] = e2e_speedup
if pr4_medians is not None:
    doc["baseline_pr4"] = {
        "source": pr4_path,
        "benchmarks": {n: {"median_us": e["median_us"]}
                       for n, e in pr4_medians.items()},
    }
    doc["speedup_vs_pr4"] = speedup_pr4
if pr4_e2e is not None:
    doc["baseline_pr4_e2e"] = {
        "source": pr4_e2e_path,
        "e2e": pr4_e2e.get("e2e", {}),
    }
    doc["e2e_speedup_vs_pr4"] = e2e_speedup_pr4

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")

print(f"wrote {out_path}")
for name in sorted(current):
    line = f"  {name}: {current[name]['median_us']} us"
    if "allocs_per_op" in current[name]:
        line += f"  [{current[name]['allocs_per_op']:.2f} allocs/op]"
    if name in speedup:
        line += f"  ({speedup[name]}x vs baseline)"
    print(line)
for sweep in sorted(e2e):
    line = f"  e2e {sweep}: {e2e[sweep]['median_wall_seconds']} s"
    if sweep in e2e_speedup:
        line += f"  ({e2e_speedup[sweep]}x vs baseline)"
    if sweep in e2e_speedup_pr4:
        line += f"  ({e2e_speedup_pr4[sweep]}x vs pr4)"
    print(line)
for name, gate in targets.items():
    status = {True: "PASS", False: "FAIL", None: "n/a"}[gate.get("pass")]
    print(f"  target {name}: {gate['measured']} ({gate['target']}) {status}")
PY
