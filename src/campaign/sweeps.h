#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "metrics/table.h"
#include "workload/scenario.h"

namespace tempriv::campaign {

/// A named parameter sweep: the scenario grid plus the recipe that folds the
/// per-point results back into the figure's table. The `table` builder
/// receives the replication-0 results in point order; for the named sweeps
/// that table is the paper figure's CSV (tests/golden/<tag>.csv).
struct Sweep {
  std::string name;  ///< CLI name ("fig2a", "buffer", "grid")
  std::string tag;   ///< CSV and artifact stem ("fig2a_mse")
  std::vector<workload::PaperScenario> points;
  std::function<metrics::Table(const std::vector<workload::ScenarioResult>&)>
      table;
};

/// Figure 2(a): baseline-adversary MSE vs 1/λ for the three §5.3 schemes.
Sweep fig2a_sweep();
/// Figure 2(b): S1 delivery latency vs 1/λ for the three schemes.
Sweep fig2b_sweep();
/// Figure 3: baseline vs adaptive adversary under RCAD.
Sweep fig3_sweep();
/// Ablation B: the privacy/latency trade-off vs buffer size k at 1/λ = 2.
Sweep buffer_size_sweep();
/// Ablation A: RCAD's victim rule (the paper's shortest-remaining vs
/// longest-remaining, random, oldest) at 1/λ ∈ {2, 6}.
Sweep victim_policy_sweep();
/// Ablation C: §3.3 delay decomposition, sink weighting {0, 0.5, 1} at
/// 1/λ ∈ {2, 6}.
Sweep delay_decomposition_sweep();
/// Ablation D: shared-trunk length, RCAD paired with unlimited buffers at
/// 1/λ = 2.
Sweep topology_sharing_sweep();
/// Ablation E: baseline vs adaptive vs path-aware adversary on Figure 3's
/// points.
Sweep adversary_models_sweep();
/// Ablation F: periodic vs Poisson vs bursty sources at equal average rate
/// on a 15-hop line.
Sweep traffic_pattern_sweep();

/// Ad-hoc cross-product grid for the CLI: every combination of the listed
/// interarrivals × buffer sizes × schemes on top of `base`, one table row
/// per point.
struct GridSpec {
  std::vector<double> interarrivals = {2.0};
  std::vector<std::size_t> buffer_slots = {10};
  std::vector<workload::Scheme> schemes = {workload::Scheme::kRcad};
  workload::PaperScenario base;  ///< remaining parameters (seed, packets, µ…)
};
Sweep grid_sweep(const GridSpec& spec);

/// The paper campaign's CLI names, in display order: the three figures and
/// the buffer-size ablation.
const std::vector<std::string>& named_sweeps();

/// Resolves a CLI name: one of named_sweeps() or one of the other
/// ablations (victim, decomposition, trunk, adversaries, traffic); CSV tags
/// are accepted as aliases. Throws std::invalid_argument on unknown names.
Sweep make_named_sweep(const std::string& name);

/// Expands the sweep into jobs, runs them on the campaign engine, and builds
/// the figure table from the replication-0 results. Extra sinks (JSONL,
/// merged stats, …) ride along in deterministic order.
struct SweepRun {
  metrics::Table table;
  std::vector<JobResult> jobs;
};
SweepRun run_sweep(const Sweep& sweep, const RunnerOptions& options,
                   std::uint32_t replications = 1,
                   const std::vector<ResultSink*>& sinks = {});

/// Runs only the jobs `shard` owns and writes the two self-describing shard
/// artifacts: the shard JSONL (header line + the owned jobs' JSONL records,
/// in ascending global job index) to `jsonl_os` and the shard stats JSON to
/// `stats_os`. Because ownership is index-modulo and seeds derive per job,
/// the records a shard emits are byte-for-byte the lines the serial run
/// would have emitted for those jobs — tempriv-merge only interleaves and
/// validates, it never recomputes. No figure table is built (a partial
/// shard cannot see every point); that happens at merge time. Extra sinks
/// see the owned jobs after the two artifact sinks.
void run_sweep_shard(const Sweep& sweep, const RunnerOptions& options,
                     std::uint32_t replications, const ShardSpec& shard,
                     std::ostream& jsonl_os, std::ostream& stats_os,
                     const std::vector<ResultSink*>& sinks = {});

/// Rebuilds a Sweep good enough to re-render the figure table from parsed
/// shard artifacts: named sweeps resolve through make_named_sweep (their
/// table recipes are code, not data); "grid" rebuilds the generic grid
/// table over the scenario points recovered from the JSONL records.
/// `points` must match the sweep's point count.
Sweep sweep_for_merge(const std::string& name,
                      const std::vector<workload::PaperScenario>& points);

}  // namespace tempriv::campaign
