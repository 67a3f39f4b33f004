#include "campaign/telemetry_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/runner.h"

namespace tempriv::campaign {
namespace {

TEST(HistBucketTest, PowerOfTwoGeometry) {
  EXPECT_EQ(hist_bucket(0), 0u);
  EXPECT_EQ(hist_bucket(1), 1u);
  EXPECT_EQ(hist_bucket(2), 2u);
  EXPECT_EQ(hist_bucket(3), 2u);
  EXPECT_EQ(hist_bucket(4), 3u);
  EXPECT_EQ(hist_bucket(7), 3u);
  EXPECT_EQ(hist_bucket(8), 4u);
  EXPECT_EQ(hist_bucket((1ull << 29)), 30u);
  // Everything at least 2^30 lands in the last bucket.
  EXPECT_EQ(hist_bucket(1ull << 30), kHistBuckets - 1);
  EXPECT_EQ(hist_bucket(~0ull), kHistBuckets - 1);
}

TelemetrySnapshot make(std::uint64_t counter, std::uint64_t gauge,
                       std::uint64_t bucket3, std::uint64_t span_nanos) {
  TelemetrySnapshot s;
  s.counters["eq.schedule_heap"] = counter;
  s.gauges["eq.peak_depth"] = gauge;
  s.histograms["buf.occupancy"].buckets[3] = bucket3;
  s.spans["job/simulate"] = SpanStat{1, span_nanos};
  return s;
}

TEST(SnapshotTest, MergeSemantics) {
  TelemetrySnapshot a = make(10, 5, 2, 100);
  const TelemetrySnapshot b = make(32, 9, 4, 250);
  a.merge(b);
  EXPECT_EQ(a.counters["eq.schedule_heap"], 42u);  // counters sum
  EXPECT_EQ(a.gauges["eq.peak_depth"], 9u);        // gauges take the max
  EXPECT_EQ(a.histograms["buf.occupancy"].buckets[3], 6u);  // buckets sum
  EXPECT_EQ(a.spans["job/simulate"].count, 2u);    // spans sum both fields
  EXPECT_EQ(a.spans["job/simulate"].nanos, 350u);
}

TEST(SnapshotTest, MergeUnionsDisjointKeys) {
  TelemetrySnapshot a;
  a.counters["only.in.a"] = 1;
  TelemetrySnapshot b;
  b.counters["only.in.b"] = 2;
  a.merge(b);
  EXPECT_EQ(a.counters.size(), 2u);
  EXPECT_EQ(a.counters["only.in.a"], 1u);
  EXPECT_EQ(a.counters["only.in.b"], 2u);
}

TEST(SnapshotTest, MergeIsAssociative) {
  const TelemetrySnapshot a = make(1, 100, 7, 11);
  const TelemetrySnapshot b = make(20, 50, 8, 13);
  TelemetrySnapshot c = make(300, 75, 9, 17);
  c.counters["extra"] = 4;  // a key the others lack

  TelemetrySnapshot left = a;  // (a . b) . c
  left.merge(b);
  left.merge(c);
  TelemetrySnapshot bc = b;  // a . (b . c)
  bc.merge(c);
  TelemetrySnapshot right = a;
  right.merge(bc);
  EXPECT_EQ(left, right);
  // Byte-level associativity is the actual shard contract: any merge order
  // must produce the identical snapshot file.
  EXPECT_EQ(telemetry_to_json(left), telemetry_to_json(right));
}

TEST(SnapshotTest, MergeIsCommutative) {
  const TelemetrySnapshot a = make(1, 100, 7, 11);
  const TelemetrySnapshot b = make(20, 50, 8, 13);
  TelemetrySnapshot ab = a;
  ab.merge(b);
  TelemetrySnapshot ba = b;
  ba.merge(a);
  EXPECT_EQ(telemetry_to_json(ab), telemetry_to_json(ba));
}

TEST(SnapshotTest, JsonRoundTripsThroughCampaignParser) {
  TelemetrySnapshot original = make(123456789012345ull, 42, 9, 987654321);
  original.counters["net.forward.rcad"] = 7;
  original.spans["merge"] = SpanStat{3, 1500};
  const std::string json = telemetry_to_json(original);
  const TelemetrySnapshot parsed = parse_telemetry_json(json);
  EXPECT_EQ(parsed, original);
  EXPECT_EQ(telemetry_to_json(parsed), json);
}

TEST(SnapshotTest, ParserRejectsGarbage) {
  EXPECT_THROW(parse_telemetry_json("{}"), std::runtime_error);
  EXPECT_THROW(parse_telemetry_json("not json"), std::runtime_error);
  // Only schema 2 is read.
  EXPECT_THROW(parse_telemetry_json(
                   "{\"telemetry\": {\"schema\": 1, \"enabled\": true, "
                   "\"counters\": {}, \"gauges\": {}, \"histograms\": {}, "
                   "\"spans\": {}}}"),
               std::runtime_error);
}

TEST(TelemetryIoTest, ShardTelemetryPathMirrorsStatsPath) {
  EXPECT_EQ(shard_telemetry_path("out/fig2a.shard-0-of-2.jsonl"),
            "out/fig2a.shard-0-of-2.telemetry.json");
  EXPECT_EQ(shard_telemetry_path("weird.log"), "weird.log.telemetry.json");
}

/// Runs `points` (one replication each) through a TelemetrySink.
TelemetrySnapshot sweep_snapshot(
    const std::vector<workload::PaperScenario>& points,
    std::vector<JobResult>* results = nullptr) {
  TelemetrySink sink;
  CampaignRunner runner({.threads = 2, .progress = nullptr});
  std::vector<JobResult> jobs =
      runner.run(CampaignRunner::expand(points, 1), {&sink});
  if (results != nullptr) *results = std::move(jobs);
  return sink.snapshot();
}

workload::PaperScenario small_scenario(workload::Scheme scheme) {
  workload::PaperScenario scenario;
  scenario.scheme = scheme;
  scenario.packets_per_source = 60;
  return scenario;
}

TEST(TelemetrySinkTest, SweptSnapshotCarriesEveryKnownMetric) {
  // A no-delay sweep buffers, preempts and drops nothing: every key must be
  // there all the same, zeros included, so the file schema never depends
  // on what ran.
  const TelemetrySnapshot snap =
      sweep_snapshot({small_scenario(workload::Scheme::kNoDelay)});
  for (const char* key :
       {"eq.schedule_heap", "eq.schedule_fifo", "eq.fifo_diverted",
        "eq.rekey", "buf.preempt.shortest_remaining",
        "buf.preempt.longest_remaining", "buf.preempt.random",
        "buf.preempt.oldest", "net.forward.immediate", "net.forward.unlimited",
        "net.forward.droptail", "net.forward.rcad",
        "net.droptail_dropped", "campaign.jobs"}) {
    EXPECT_EQ(snap.counters.count(key), 1u) << key;
  }
  for (const char* key : {"eq.peak_depth", "buf.peak_occupancy",
                          "mem.network_bytes", "mem.topology_bytes",
                          "mem.routing_bytes"}) {
    EXPECT_EQ(snap.gauges.count(key), 1u) << key;
  }
  for (const char* key : {"buf.occupancy", "campaign.job_wall_us"}) {
    EXPECT_EQ(snap.histograms.count(key), 1u) << key;
  }
  for (const char* key : {"job", "job/build", "job/simulate", "job/score"}) {
    ASSERT_EQ(snap.spans.count(key), 1u) << key;
    EXPECT_EQ(snap.spans.at(key).count, 1u) << key;
  }
  EXPECT_EQ(snap.counters.size(), 14u);
  EXPECT_EQ(snap.gauges.size(), 5u);
  EXPECT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.counters.at("campaign.jobs"), 1u);
  EXPECT_GT(snap.counters.at("net.forward.immediate"), 0u);
  EXPECT_EQ(snap.counters.at("net.forward.rcad"), 0u);
  EXPECT_EQ(snap.histograms.at("buf.occupancy").total(), 0u);
}

TEST(TelemetrySinkTest, FilesCountsUnderEachJobsSchemeAndPolicy) {
  workload::PaperScenario oldest = small_scenario(workload::Scheme::kRcad);
  oldest.victim = core::VictimPolicy::kOldest;
  std::vector<JobResult> jobs;
  const TelemetrySnapshot snap = sweep_snapshot(
      {small_scenario(workload::Scheme::kRcad), oldest,
       small_scenario(workload::Scheme::kDropTail),
       small_scenario(workload::Scheme::kUnlimitedDelay)},
      &jobs);
  ASSERT_EQ(jobs.size(), 4u);
  const auto& c = snap.counters;
  EXPECT_EQ(c.at("buf.preempt.shortest_remaining"), jobs[0].result.preemptions);
  EXPECT_EQ(c.at("buf.preempt.oldest"), jobs[1].result.preemptions);
  EXPECT_GT(c.at("buf.preempt.oldest"), 0u);
  EXPECT_EQ(c.at("net.droptail_dropped"), jobs[2].result.drops);
  EXPECT_GT(c.at("net.droptail_dropped"), 0u);
  EXPECT_EQ(c.at("net.forward.rcad"),
            jobs[0].result.telemetry.forward_buffered +
                jobs[1].result.telemetry.forward_buffered);
  EXPECT_EQ(c.at("net.forward.droptail"),
            jobs[2].result.telemetry.forward_buffered);
  EXPECT_EQ(c.at("net.forward.unlimited"),
            jobs[3].result.telemetry.forward_buffered);
  EXPECT_GT(c.at("net.forward.unlimited"), 0u);

  // Every buffering job re-keys (an arrival that leaves before a queue's
  // head, or a preempted head, moves the queue's event), and nothing is
  // cancelled, so a drained queue ran every event it scheduled.
  std::uint64_t events = 0, rekeys = 0;
  for (const JobResult& job : jobs) {
    events += job.result.events_executed;
    rekeys += job.result.telemetry.rekeys;
    EXPECT_GT(job.result.telemetry.rekeys, 0u);
  }
  EXPECT_EQ(c.at("eq.rekey"), rekeys);
  EXPECT_EQ(c.at("eq.schedule_heap") + c.at("eq.schedule_fifo"), events);
  EXPECT_GT(snap.histograms.at("buf.occupancy").total(), 0u);
  EXPECT_EQ(c.at("campaign.jobs"), 4u);
  // Drop-tail and RCAD hold at most k = 10 packets a node; the unlimited
  // buffers may hold more.
  EXPECT_GE(snap.gauges.at("buf.peak_occupancy"), 10u);
}

}  // namespace
}  // namespace tempriv::campaign
