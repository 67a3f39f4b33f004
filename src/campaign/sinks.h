#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "campaign/job.h"
#include "campaign/shard.h"
#include "metrics/histogram.h"
#include "metrics/stats.h"

namespace tempriv::campaign {

/// Consumer of campaign results. The runner calls consume() strictly in
/// job-index order (0, 1, 2, ...) no matter which worker finished which job
/// when, and close() exactly once after the last job — so a sink can be
/// written as if the campaign were serial. Sinks are driven under the
/// runner's merge lock; they need no synchronization of their own.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void consume(const JobResult& job) = 0;
  virtual void close() {}
};

/// Streams one JSON object per job to `os`. Every emitted field is a
/// deterministic function of the job spec (wall_seconds is deliberately
/// omitted), so the log is byte-identical across worker counts — the
/// determinism test diffs it directly. The sink keeps a running FNV-1a-64
/// of the bytes it writes, which a shard's stats file records so a merge
/// can prove the job lines were not edited.
class JsonlSink : public ResultSink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(os) {}

  void consume(const JobResult& job) override;

  /// fnv1a64 of every byte written so far.
  std::uint64_t digest() const noexcept { return digest_; }

 private:
  std::ostream& os_;
  std::uint64_t digest_ = kFnv1aOffset;
};

/// Per-job summary statistics in mergeable form: Welford accumulators plus a
/// fixed-bin latency histogram, combined with StreamingStats::merge /
/// Histogram::merge. Each job produces one of these; the campaign total is
/// the in-order merge of all of them.
struct CampaignStats {
  CampaignStats();

  /// Per-flow mean latencies across all consumed jobs.
  metrics::StreamingStats flow_latency;
  /// Per-flow baseline-adversary MSE across all consumed jobs.
  metrics::StreamingStats flow_mse_baseline;
  /// Preemptions per originated packet, one sample per job.
  metrics::StreamingStats preemptions_per_packet;
  /// Distribution of per-flow mean latencies (bins cover [0, 1000)).
  metrics::Histogram latency_hist;
  /// Distribution of per-job preemption counts (RCAD ejections per run).
  metrics::IntegerHistogram preemption_hist;
  std::uint64_t jobs = 0;
  std::uint64_t sim_events = 0;

  /// Folds one job in (the serial accumulation path).
  void add(const JobResult& job);

  /// Combines another accumulator (the parallel reduction path). Associative
  /// up to floating-point rounding; the runner fixes the fold order by job
  /// index so even the rounding is reproducible.
  void merge(const CampaignStats& other);
};

/// Sink that reduces the whole campaign into a CampaignStats, plus one
/// CampaignStats per scenario point (aggregating that point's replications).
class MergedStatsSink : public ResultSink {
 public:
  /// `points` = number of scenario points in the campaign.
  explicit MergedStatsSink(std::size_t points);

  void consume(const JobResult& job) override;

  const CampaignStats& total() const noexcept { return total_; }
  const CampaignStats& point(std::size_t i) const { return per_point_.at(i); }
  std::size_t point_count() const noexcept { return per_point_.size(); }

 private:
  CampaignStats total_;
  std::vector<CampaignStats> per_point_;
};

/// Formats a double for the JSONL log: shortest round-trippable decimal via
/// max_digits10, locale-independent. Exposed for tests.
std::string json_number(double value);

/// Writes the campaign stats artifact (`<tag>.stats.json`, or the
/// `.shard-i-of-N.stats.json` sibling of a shard JSONL): the manifest, the
/// shard block when `shard` is non-null (0/1 included, so every shard set
/// is digest-checked; with the shard JSONL's `jsonl_fnv1a` digest when
/// given), the total CampaignStats, and one
/// CampaignStats per scenario point. Every byte is a deterministic function
/// of the consumed jobs and the manifest, so a merged N-shard campaign
/// writes the identical file a serial run writes — the byte-identity
/// contract the determinism suite diffs.
void write_campaign_stats_json(std::ostream& os,
                               const CampaignManifest& manifest,
                               const ShardSpec* shard,
                               const MergedStatsSink& stats,
                               std::optional<std::uint64_t> jsonl_fnv1a = {});

/// The human summary both tempriv-campaign (after a serial or supervised
/// run) and tempriv-merge (after combining shards) print — shared so the
/// two paths emit identical text for identical campaigns.
void print_campaign_summary(std::ostream& os, const CampaignStats& total,
                            std::size_t points, std::uint32_t reps);

}  // namespace tempriv::campaign
