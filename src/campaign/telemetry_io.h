#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "campaign/sinks.h"

namespace tempriv::campaign {

/// Fixed power-of-two histogram geometry: bucket b counts values whose
/// bit_width is b, i.e. bucket 0 = {0}, bucket 1 = {1}, bucket 2 = {2,3},
/// bucket b = [2^(b-1), 2^b). The last bucket absorbs everything wider.
/// Fixed geometry is what makes shard merges a plain element-wise sum.
inline constexpr std::size_t kHistBuckets = 32;

constexpr std::size_t hist_bucket(std::uint64_t value) noexcept {
  const std::size_t width = static_cast<std::size_t>(std::bit_width(value));
  return width < kHistBuckets ? width : kHistBuckets - 1;
}

/// Bucket counts of one fixed-geometry histogram (see hist_bucket()).
struct HistogramCounts {
  std::array<std::uint64_t, kHistBuckets> buckets{};

  friend bool operator==(const HistogramCounts&,
                         const HistogramCounts&) = default;
};

/// Accumulated wall time of one phase-span path ("job/simulate", "merge").
/// Durations are integer nanoseconds, not doubles, so merging shard
/// snapshots is exactly associative (tested).
struct SpanStat {
  std::uint64_t count = 0;
  std::uint64_t nanos = 0;

  friend bool operator==(const SpanStat&, const SpanStat&) = default;
};

/// A campaign's (or shard's) metrics. String-keyed maps, not enum arrays:
/// a snapshot parsed from a newer or older build's file merges by key
/// union, and std::map keeps JSON output deterministically sorted. Merge
/// semantics — the shard-combination contract — are: sum counters, max
/// gauges, element-wise-sum histograms, sum spans.
struct TelemetrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> gauges;
  std::map<std::string, HistogramCounts> histograms;
  std::map<std::string, SpanStat> spans;

  /// Folds `other` into this snapshot. Commutative and associative in
  /// every field, so any shard merge order produces the same bytes.
  void merge(const TelemetrySnapshot& other);

  friend bool operator==(const TelemetrySnapshot&,
                         const TelemetrySnapshot&) = default;
};

/// Folds every consumed job's measurement record
/// (workload::ScenarioResult::telemetry, its preemption and drop counts and
/// the job's wall time) into one snapshot, in job order. The snapshot
/// starts with every counter, gauge and histogram at zero, so the file
/// schema is the same whatever the campaign ran.
class TelemetrySink : public ResultSink {
 public:
  TelemetrySink();

  void consume(const JobResult& job) override;

  const TelemetrySnapshot& snapshot() const noexcept { return snapshot_; }

 private:
  TelemetrySnapshot snapshot_;
};

/// Deterministic JSON (schema 2): fixed field order, sorted keys, integers
/// only.
void write_telemetry_json(std::ostream& os, const TelemetrySnapshot& snapshot);

/// Sibling path for a shard's telemetry snapshot, derived from its JSONL
/// artifact path the same way shard_stats_path() derives the stats sibling:
/// "out.shard0.jsonl" -> "out.shard0.telemetry.json".
std::string shard_telemetry_path(const std::string& jsonl_path);

/// Parses a snapshot file written by write_telemetry_json(). Unknown keys
/// merge by union downstream; a missing or malformed document, or another
/// schema, throws std::runtime_error.
TelemetrySnapshot parse_telemetry_json(std::string_view text);

/// Reads and parses `path`; throws std::runtime_error (naming the path) if
/// the file cannot be opened or does not parse.
TelemetrySnapshot load_telemetry_file(const std::string& path);

/// Writes `snapshot` to `path` (creating parent directories), throwing on
/// I/O failure.
void write_telemetry_file(const std::string& path,
                          const TelemetrySnapshot& snapshot);

}  // namespace tempriv::campaign
