#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "campaign/job.h"
#include "campaign/shard.h"
#include "campaign/sinks.h"
#include "metrics/histogram.h"
#include "metrics/table.h"

namespace tempriv::campaign {

/// One job parsed back from a shard JSONL record. `spec.scenario` is the
/// JSONL subset of the scenario (the swept axes), which is everything the
/// figure tables and merged stats read; fields the log does not carry keep
/// their defaults.
struct JobRecord {
  JobSpec spec;
  workload::ScenarioResult result;
};

/// Parses one JSONL job line. Throws std::runtime_error (prefixed with
/// `label`) on malformed input.
JobRecord parse_job_record(const std::string& line, const std::string& label);

/// One shard's artifacts loaded for merging: the parsed header, the raw job
/// lines (kept verbatim — the merged JSONL is an interleave of these exact
/// bytes), and the validation subset of the stats sibling.
struct ShardInput {
  std::string label;  ///< path (or test label) for error messages
  ShardHeader header;
  std::vector<std::string> job_lines;  ///< without trailing newline

  /// From the `.stats.json` sibling; histograms merge order-independently,
  /// so they both cross-check the JSONL and exercise the
  /// Histogram/IntegerHistogram merge path.
  bool has_stats = false;
  std::uint64_t stats_jobs = 0;
  std::uint64_t stats_sim_events = 0;
  std::optional<metrics::Histogram> stats_latency_hist;
  metrics::IntegerHistogram stats_preemption_hist;
  /// The shard block's `jsonl_fnv1a`: fnv1a64 of the job lines as written.
  std::optional<std::uint64_t> stats_jsonl_fnv1a;
};

/// Reads a shard JSONL stream (header line + job lines).
/// Throws std::runtime_error on a missing/malformed header.
ShardInput read_shard_jsonl(std::istream& is, const std::string& label);

/// Reads a shard stats stream into `shard` and validates that its campaign
/// and shard blocks agree with the JSONL header. Throws std::runtime_error
/// on parse failure or disagreement.
void read_shard_stats(std::istream& is, const std::string& label,
                      ShardInput& shard);

/// Stats sibling path of a shard JSONL path: "x.jsonl" -> "x.stats.json".
std::string shard_stats_path(const std::string& jsonl_path);

/// Loads a shard JSONL file plus its stats sibling (by naming convention).
/// A missing stats sibling is tolerated (has_stats stays false) so --check
/// can describe it rather than die; merging requires it.
ShardInput load_shard_files(const std::string& jsonl_path);

/// Outcome of validating a shard set for merge. `errors` is
/// human-readable, one problem per entry (incompatible manifests, duplicate
/// or missing shards, job records that violate the ownership rule, gaps,
/// truncated files, missing stats siblings, job lines whose digest is
/// missing from or disagrees with the stats shard block...).
struct MergeCheck {
  std::vector<std::string> errors;
  bool ok() const noexcept { return errors.empty(); }
};

/// Dry-run validation: reports every reason the shard set cannot merge
/// into a complete campaign. Writes nothing.
MergeCheck check_shards(const std::vector<ShardInput>& shards);

/// A fully merged campaign, byte-identical to what the serial run
/// produces: `jsonl` to the serial JSONL log, `stats_json` to the serial
/// stats artifact, and `table` renders the serial CSV.
struct MergedCampaign {
  CampaignManifest manifest;
  std::string jsonl;
  std::string stats_json;
  // Placeholder column until merge_shards() installs the real table —
  // metrics::Table rejects an empty column list.
  metrics::Table table = metrics::Table({"-"});
  CampaignStats total;
};

/// Validates and merges. The JSONL is an interleave of the shards' verbatim
/// lines in ascending job index; the stats artifact is rebuilt by replaying
/// the parsed records through MergedStatsSink in the same order the serial
/// run consumed them (in-order job-index reduction — Welford folds are
/// order-sensitive, so this is the only way to match the serial bytes); the
/// shard stats histograms are combined with Histogram::merge /
/// IntegerHistogram::merge and cross-checked against the replayed totals,
/// so a stats sibling that disagrees with its JSONL can never merge
/// silently. Throws std::runtime_error (all check errors joined) if the
/// shard set is incomplete or incompatible.
MergedCampaign merge_shards(const std::vector<ShardInput>& shards);

}  // namespace tempriv::campaign
