#include "campaign/merge.h"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/sweeps.h"

namespace tempriv::campaign {
namespace {

// A 4-point grid (2 rates x 2 schemes) at 60 packets per source: small
// enough that the full serial-vs-sharded matrix below runs in well under a
// second, but crossing schemes so different points exercise different code.
Sweep small_sweep() {
  GridSpec spec;
  spec.interarrivals = {2.0, 6.0};
  spec.schemes = {workload::Scheme::kRcad, workload::Scheme::kDropTail};
  spec.base.packets_per_source = 60;
  return grid_sweep(spec);
}

struct SerialOutput {
  std::string jsonl;
  std::string stats_json;
  std::string csv;
};

SerialOutput run_serial(const Sweep& sweep, std::uint32_t reps) {
  std::ostringstream jsonl_os;
  JsonlSink jsonl(jsonl_os);
  MergedStatsSink stats(sweep.points.size());
  const SweepRun run =
      run_sweep(sweep, {.threads = 2, .progress = nullptr}, reps,
                {&jsonl, &stats});
  const CampaignManifest manifest =
      make_manifest(sweep.name, sweep.tag, reps, sweep.points);
  std::ostringstream stats_os;
  write_campaign_stats_json(stats_os, manifest, nullptr, stats);
  std::ostringstream csv_os;
  run.table.write_csv(csv_os);
  return {jsonl_os.str(), stats_os.str(), csv_os.str()};
}

struct ShardText {
  std::string jsonl;
  std::string stats;
};

ShardText run_shard_to_text(const Sweep& sweep, std::uint32_t reps,
                            const ShardSpec& spec, std::size_t threads = 2) {
  std::ostringstream jsonl_os, stats_os;
  run_sweep_shard(sweep, {.threads = threads, .progress = nullptr}, reps, spec,
                  jsonl_os, stats_os);
  return {jsonl_os.str(), stats_os.str()};
}

ShardInput input_from_text(const ShardText& text, const std::string& label) {
  std::istringstream jsonl_in(text.jsonl);
  ShardInput input = read_shard_jsonl(jsonl_in, label);
  std::istringstream stats_in(text.stats);
  read_shard_stats(stats_in, label + ".stats", input);
  return input;
}

std::vector<ShardInput> make_shards(const Sweep& sweep, std::uint32_t reps,
                                    std::uint32_t count) {
  std::vector<ShardInput> shards;
  for (std::uint32_t i = 0; i < count; ++i) {
    shards.push_back(
        input_from_text(run_shard_to_text(sweep, reps, ShardSpec{i, count}),
                        "shard-" + std::to_string(i)));
  }
  return shards;
}

/// Rewrites the header line of a shard JSONL through a mutation — the
/// corruption vector for the --check tests.
ShardText with_mutated_header(ShardText text,
                              const std::function<void(ShardHeader&)>& mutate) {
  const std::size_t nl = text.jsonl.find('\n');
  ShardHeader header =
      parse_shard_header(text.jsonl.substr(0, nl), "mutate");
  mutate(header);
  text.jsonl = shard_header_json(header) + text.jsonl.substr(nl);
  return text;
}

TEST(MergeTest, MergedOutputsAreByteIdenticalToSerial) {
  const Sweep sweep = small_sweep();
  const std::uint32_t reps = 2;
  const SerialOutput serial = run_serial(sweep, reps);
  ASSERT_FALSE(serial.jsonl.empty());

  for (const std::uint32_t count : {1u, 2u, 3u}) {
    const MergedCampaign merged =
        merge_shards(make_shards(sweep, reps, count));
    EXPECT_EQ(merged.jsonl, serial.jsonl) << count << " shards";
    EXPECT_EQ(merged.stats_json, serial.stats_json) << count << " shards";
    std::ostringstream csv_os;
    merged.table.write_csv(csv_os);
    EXPECT_EQ(csv_os.str(), serial.csv) << count << " shards";
  }
}

TEST(MergeTest, ShardOrderDoesNotMatter) {
  const Sweep sweep = small_sweep();
  std::vector<ShardInput> shards = make_shards(sweep, 2, 3);
  std::swap(shards[0], shards[2]);
  const MergedCampaign merged = merge_shards(shards);
  EXPECT_EQ(merged.jsonl, run_serial(sweep, 2).jsonl);
}

TEST(MergeTest, ShardWorkerCountDoesNotChangeShardBytes) {
  // Inside a shard the runner already guarantees thread-count invariance;
  // spot-check it holds through the shard artifact path too.
  const Sweep sweep = small_sweep();
  const ShardSpec spec{1, 3};
  const ShardText one = run_shard_to_text(sweep, 2, spec, /*threads=*/1);
  const ShardText four = run_shard_to_text(sweep, 2, spec, /*threads=*/4);
  EXPECT_EQ(one.jsonl, four.jsonl);
  EXPECT_EQ(one.stats, four.stats);
}

TEST(MergeCheckTest, CleanShardSetPasses) {
  const MergeCheck check = check_shards(make_shards(small_sweep(), 2, 3));
  EXPECT_TRUE(check.ok()) << (check.errors.empty() ? "" : check.errors[0]);
}

TEST(MergeCheckTest, MissingShardIsReported) {
  std::vector<ShardInput> shards = make_shards(small_sweep(), 2, 3);
  shards.erase(shards.begin() + 1);
  const MergeCheck check = check_shards(shards);
  ASSERT_FALSE(check.ok());
  bool mentions_missing = false;
  for (const std::string& error : check.errors) {
    if (error.find("missing") != std::string::npos) mentions_missing = true;
  }
  EXPECT_TRUE(mentions_missing);
}

TEST(MergeCheckTest, DuplicateShardIsReported) {
  std::vector<ShardInput> shards = make_shards(small_sweep(), 2, 2);
  shards.push_back(shards[0]);
  const MergeCheck check = check_shards(shards);
  ASSERT_FALSE(check.ok());
  bool mentions_duplicate = false;
  for (const std::string& error : check.errors) {
    if (error.find("duplicate") != std::string::npos) mentions_duplicate = true;
  }
  EXPECT_TRUE(mentions_duplicate);
}

TEST(MergeCheckTest, WrongBaseSeedIsReported) {
  const Sweep sweep = small_sweep();
  std::vector<ShardInput> shards;
  shards.push_back(input_from_text(
      run_shard_to_text(sweep, 2, ShardSpec{0, 2}), "shard-0"));
  ShardText tampered = with_mutated_header(
      run_shard_to_text(sweep, 2, ShardSpec{1, 2}),
      [](ShardHeader& h) { h.manifest.base_seed += 1; });
  // The tampered stats sibling still matches the original header, so load
  // only the JSONL (has_stats=false adds its own error, which is fine —
  // the seed mismatch must be among the reported problems).
  std::istringstream jsonl_in(tampered.jsonl);
  shards.push_back(read_shard_jsonl(jsonl_in, "shard-1"));
  const MergeCheck check = check_shards(shards);
  ASSERT_FALSE(check.ok());
  bool mentions_seed = false;
  for (const std::string& error : check.errors) {
    if (error.find("base_seed") != std::string::npos) mentions_seed = true;
  }
  EXPECT_TRUE(mentions_seed);
  EXPECT_THROW(merge_shards(shards), std::runtime_error);
}

TEST(MergeCheckTest, MismatchedShardCountsAreReported) {
  const Sweep sweep = small_sweep();
  std::vector<ShardInput> shards;
  shards.push_back(input_from_text(
      run_shard_to_text(sweep, 2, ShardSpec{0, 2}), "shard-0of2"));
  shards.push_back(input_from_text(
      run_shard_to_text(sweep, 2, ShardSpec{0, 3}), "shard-0of3"));
  const MergeCheck check = check_shards(shards);
  ASSERT_FALSE(check.ok());
}

TEST(MergeCheckTest, TruncatedShardIsReported) {
  const Sweep sweep = small_sweep();
  ShardText text = run_shard_to_text(sweep, 2, ShardSpec{0, 2});
  // Drop the last job line (and its newline): simulates a crashed shard.
  const std::size_t last_nl = text.jsonl.rfind('\n', text.jsonl.size() - 2);
  text.jsonl.resize(last_nl + 1);
  std::istringstream jsonl_in(text.jsonl);
  ShardInput truncated = read_shard_jsonl(jsonl_in, "truncated");
  std::vector<ShardInput> shards = {truncated};
  shards.push_back(input_from_text(
      run_shard_to_text(sweep, 2, ShardSpec{1, 2}), "shard-1"));
  const MergeCheck check = check_shards(shards);
  ASSERT_FALSE(check.ok());
}

TEST(MergeCheckTest, MissingStatsSiblingIsReported) {
  const Sweep sweep = small_sweep();
  const ShardText text = run_shard_to_text(sweep, 2, ShardSpec{0, 1});
  std::istringstream jsonl_in(text.jsonl);
  const ShardInput no_stats = read_shard_jsonl(jsonl_in, "no-stats");
  EXPECT_FALSE(no_stats.has_stats);
  const MergeCheck check = check_shards({no_stats});
  ASSERT_FALSE(check.ok());
}

// One digit of one record's mse_baseline changed: the record is still valid
// JSON and the stats sibling's counts and histograms still agree, so only
// the stats shard block's jsonl_fnv1a digest can tell. Without the digest
// the shard is rejected too.
TEST(MergeCheckTest, EditedValueFailsTheJsonlDigest) {
  const Sweep sweep = small_sweep();
  const ShardInput clean = input_from_text(
      run_shard_to_text(sweep, 2, ShardSpec{0, 2}), "shard-0");
  ShardText text = run_shard_to_text(sweep, 2, ShardSpec{1, 2});
  const std::size_t key = text.jsonl.find("\"mse_baseline\":");
  ASSERT_NE(key, std::string::npos);
  const std::size_t digit = text.jsonl.find_first_of("0123456789", key);
  char& c = text.jsonl[digit];
  c = c == '9' ? '8' : static_cast<char>(c + 1);
  const std::vector<ShardInput> edited = {clean,
                                          input_from_text(text, "shard-1")};
  const MergeCheck check = check_shards(edited);
  ASSERT_EQ(check.errors.size(), 1u);
  EXPECT_NE(check.errors[0].find("shard-1"), std::string::npos);
  EXPECT_NE(check.errors[0].find("jsonl_fnv1a"), std::string::npos);
  EXPECT_THROW(merge_shards(edited), std::runtime_error);

  ShardText undigested = run_shard_to_text(sweep, 2, ShardSpec{1, 2});
  const std::size_t at = undigested.stats.find(",\"jsonl_fnv1a\"");
  ASSERT_NE(at, std::string::npos);
  undigested.stats.erase(at, undigested.stats.find('}', at) - at);
  const MergeCheck missing =
      check_shards({clean, input_from_text(undigested, "shard-1")});
  ASSERT_EQ(missing.errors.size(), 1u);
  EXPECT_NE(missing.errors[0].find("shard-1: stats shard block has no "
                                   "jsonl_fnv1a"),
            std::string::npos);
}

TEST(MergeCheckTest, EditedValueInOneShardSetFailsTheJsonlDigest) {
  // A 0/1 run stamps the same digest an N-shard run does, so a one-shard
  // set gets no pass; its merge still writes the serial bytes.
  const Sweep sweep = small_sweep();
  const ShardText clean = run_shard_to_text(sweep, 2, ShardSpec{0, 1});
  EXPECT_NE(clean.stats.find("\"jsonl_fnv1a\""), std::string::npos);
  EXPECT_TRUE(check_shards({input_from_text(clean, "only")}).ok());
  EXPECT_EQ(merge_shards({input_from_text(clean, "only")}).stats_json,
            run_serial(sweep, 2).stats_json);

  ShardText text = clean;
  const std::size_t key = text.jsonl.find("\"mse_baseline\":");
  ASSERT_NE(key, std::string::npos);
  const std::size_t digit = text.jsonl.find_first_of("0123456789", key);
  char& c = text.jsonl[digit];
  c = c == '9' ? '8' : static_cast<char>(c + 1);
  const std::vector<ShardInput> edited = {input_from_text(text, "only")};
  const MergeCheck check = check_shards(edited);
  ASSERT_EQ(check.errors.size(), 1u);
  EXPECT_NE(check.errors[0].find("only: job records do not match the stats "
                                 "digest"),
            std::string::npos)
      << check.errors[0];
  EXPECT_THROW(merge_shards(edited), std::runtime_error);
}

TEST(MergeTest, JobRecordRoundTripsThroughJsonl) {
  // Every field the stats replay and the figure tables read must survive the
  // JSONL round trip bit-exactly.
  const Sweep sweep = small_sweep();
  std::ostringstream jsonl_os;
  JsonlSink jsonl(jsonl_os);
  const SweepRun run = run_sweep(sweep, {.threads = 1, .progress = nullptr},
                                 1, {&jsonl});
  std::istringstream lines(jsonl_os.str());
  std::string line;
  std::size_t i = 0;
  while (std::getline(lines, line)) {
    const JobRecord record = parse_job_record(line, "roundtrip");
    const JobResult& expected = run.jobs.at(i);
    EXPECT_EQ(record.spec.index, expected.spec.index);
    EXPECT_EQ(record.spec.scenario.seed, expected.spec.scenario.seed);
    EXPECT_EQ(record.result.events_executed, expected.result.events_executed);
    EXPECT_EQ(record.result.mean_latency_all, expected.result.mean_latency_all);
    ASSERT_EQ(record.result.flows.size(), expected.result.flows.size());
    for (std::size_t f = 0; f < record.result.flows.size(); ++f) {
      EXPECT_EQ(record.result.flows[f].mse_baseline,
                expected.result.flows[f].mse_baseline);
      EXPECT_EQ(record.result.flows[f].mean_latency,
                expected.result.flows[f].mean_latency);
    }
    ++i;
  }
  EXPECT_EQ(i, run.jobs.size());
}

}  // namespace
}  // namespace tempriv::campaign
