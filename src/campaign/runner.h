#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "campaign/job.h"
#include "campaign/progress.h"
#include "campaign/shard.h"
#include "campaign/sinks.h"

namespace tempriv::campaign {

struct RunnerOptions {
  /// Worker threads; 0 = hardware_concurrency (the CLI's --jobs default).
  std::size_t threads = 0;
  /// Optional progress meter (not owned); may be null.
  ProgressReporter* progress = nullptr;
};

/// Fans a list of jobs out across a ThreadPool and merges the results
/// deterministically: sinks see completed jobs strictly in submission order
/// (an in-order release valve buffers out-of-order completions), and the
/// returned vector preserves the input order. Job lists are always built in
/// ascending job-index order — full campaigns have dense indices 0..n-1,
/// shard job lists the stride-N subsequence — so "submission order" is
/// "ascending global job index" in both cases. Running the same job list
/// with 1 or 64 workers therefore produces bit-identical sink output.
///
/// Each job builds its own Simulator/Network from its JobSpec — the
/// simulator is single-threaded and non-copyable by design, so jobs share
/// nothing and need no locks.
class CampaignRunner {
 public:
  explicit CampaignRunner(RunnerOptions options) : options_(options) {}

  /// Expands scenario points × replications into the flat job list.
  /// Replication 0 runs each point's scenario verbatim (its own seed, which
  /// keeps the golden CSVs byte-identical); replication r > 0 reseeds with
  /// sim::derive_seed(seed, r).
  static std::vector<JobSpec> expand(
      const std::vector<workload::PaperScenario>& points,
      std::uint32_t replications);

  /// Sharded expansion: the subsequence of expand(points, replications)
  /// owned by `shard` (global job indices i, i+N, i+2N, ... are preserved in
  /// the specs). Seeds derive per job from the point seed, never from shard
  /// layout, so the union of all shards' job lists is exactly the serial
  /// list — same specs, same seeds, same order.
  static std::vector<JobSpec> expand(
      const std::vector<workload::PaperScenario>& points,
      std::uint32_t replications, const ShardSpec& shard);

  /// Runs every job; returns results in submission order. Sinks (not
  /// owned, may be empty) are fed in that order as jobs complete and
  /// close()d before returning. If any job threw, the exception of the
  /// earliest-submitted failing job is rethrown after the pool drains.
  std::vector<JobResult> run(const std::vector<JobSpec>& jobs,
                             const std::vector<ResultSink*>& sinks = {});

 private:
  RunnerOptions options_;
};

/// Convenience for table builders: the replication-0 ScenarioResult of every
/// point, in point order.
std::vector<workload::ScenarioResult> point_results(
    const std::vector<JobResult>& jobs);

}  // namespace tempriv::campaign
