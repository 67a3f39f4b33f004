// The sharding byte-identity gate: for every named sweep, running the
// campaign as N shards (each with its own worker pool) and merging must
// reproduce the serial run's JSONL log, stats artifact, and figure CSV
// byte for byte, for N in {1, 2, 3, 8} — and inside each shard the worker
// count (1 vs 4) must not matter. This is the contract that makes
// `tempriv-campaign --shard i/N` + `tempriv-merge` a drop-in replacement
// for the serial run.
//
// Sweeps run with packets_per_source shrunk so the whole matrix (9 sweeps
// x 4 shard counts x 2 worker counts) finishes in a few seconds; the
// byte-identity property is load-independent, so nothing is lost.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "campaign/merge.h"
#include "campaign/sweeps.h"
#include "campaign/sweep_names.h"

namespace tempriv::campaign {
namespace {

constexpr std::uint32_t kReps = 2;

Sweep reduced_sweep(const std::string& name) {
  Sweep sweep = make_named_sweep(name);
  for (workload::PaperScenario& point : sweep.points) {
    point.packets_per_source = 50;
  }
  return sweep;
}

struct CampaignBytes {
  std::string jsonl;
  std::string stats_json;
  std::string csv;
};

CampaignBytes serial_bytes(const Sweep& sweep) {
  std::ostringstream jsonl_os;
  JsonlSink jsonl(jsonl_os);
  MergedStatsSink stats(sweep.points.size());
  const SweepRun run = run_sweep(
      sweep, {.threads = 2, .progress = nullptr}, kReps, {&jsonl, &stats});
  const CampaignManifest manifest =
      make_manifest(sweep.name, sweep.tag, kReps, sweep.points);
  std::ostringstream stats_os;
  write_campaign_stats_json(stats_os, manifest, nullptr, stats);
  std::ostringstream csv_os;
  run.table.write_csv(csv_os);
  return {jsonl_os.str(), stats_os.str(), csv_os.str()};
}

CampaignBytes sharded_bytes(const Sweep& sweep, std::uint32_t count,
                            std::size_t threads) {
  std::vector<ShardInput> shards;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::ostringstream jsonl_os, stats_os;
    run_sweep_shard(sweep, {.threads = threads, .progress = nullptr}, kReps,
                    ShardSpec{i, count}, jsonl_os, stats_os);
    std::istringstream jsonl_in(jsonl_os.str());
    const std::string label = "shard-" + std::to_string(i);
    ShardInput input = read_shard_jsonl(jsonl_in, label);
    std::istringstream stats_in(stats_os.str());
    read_shard_stats(stats_in, label + ".stats", input);
    shards.push_back(std::move(input));
  }
  const MergedCampaign merged = merge_shards(shards);
  std::ostringstream csv_os;
  merged.table.write_csv(csv_os);
  return {merged.jsonl, merged.stats_json, csv_os.str()};
}

class ShardDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardDeterminism, MergedShardsMatchSerialBytes) {
  const Sweep sweep = reduced_sweep(GetParam());
  const CampaignBytes serial = serial_bytes(sweep);
  ASSERT_FALSE(serial.jsonl.empty());
  ASSERT_FALSE(serial.stats_json.empty());

  for (const std::uint32_t count : {1u, 2u, 3u, 8u}) {
    // 1 worker per shard and 4 workers per shard must both reproduce the
    // serial bytes: shard membership fixes which jobs run, worker count
    // only fixes who runs them.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const CampaignBytes merged = sharded_bytes(sweep, count, threads);
      EXPECT_EQ(merged.jsonl, serial.jsonl)
          << GetParam() << ": " << count << " shards, " << threads
          << " threads";
      EXPECT_EQ(merged.stats_json, serial.stats_json)
          << GetParam() << ": " << count << " shards, " << threads
          << " threads";
      EXPECT_EQ(merged.csv, serial.csv)
          << GetParam() << ": " << count << " shards, " << threads
          << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NamedSweeps, ShardDeterminism,
                         ::testing::ValuesIn(all_named_sweeps()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace tempriv::campaign
