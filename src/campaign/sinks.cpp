#include "campaign/sinks.h"

#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "metrics/table.h"

namespace tempriv::campaign {

std::string json_number(double value) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

void JsonlSink::consume(const JobResult& job) {
  const workload::PaperScenario& s = job.spec.scenario;
  const workload::ScenarioResult& r = job.result;
  std::ostringstream line;
  line << "{\"job\":" << job.spec.index << ",\"point\":" << job.spec.point
       << ",\"replication\":" << job.spec.replication << ",\"seed\":" << s.seed
       << ",\"scenario\":{\"interarrival\":" << json_number(s.interarrival)
       << ",\"packets_per_source\":" << s.packets_per_source
       << ",\"mean_delay\":" << json_number(s.mean_delay)
       << ",\"buffer_slots\":" << s.buffer_slots
       << ",\"hop_tx_delay\":" << json_number(s.hop_tx_delay)
       << ",\"scheme\":\"" << workload::to_string(s.scheme)
       << "\",\"source\":\"" << workload::to_string(s.source)
       << "\"},\"result\":{\"originated\":" << r.originated
       << ",\"delivered\":" << r.delivered
       << ",\"preemptions\":" << r.preemptions << ",\"drops\":" << r.drops
       << ",\"mean_latency_all\":" << json_number(r.mean_latency_all)
       << ",\"sim_end_time\":" << json_number(r.sim_end_time)
       << ",\"events_executed\":" << r.events_executed
       << ",\"transmissions\":" << r.transmissions
       << ",\"packets_traced\":" << r.packets_traced << ",\"flows\":[";
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    const workload::FlowResult& flow = r.flows[i];
    if (i > 0) line << ",";
    line << "{\"source\":" << flow.source << ",\"hops\":" << flow.hops
         << ",\"delivered\":" << flow.delivered
         << ",\"mse_baseline\":" << json_number(flow.mse_baseline)
         << ",\"mse_adaptive\":" << json_number(flow.mse_adaptive)
         << ",\"mse_path_aware\":" << json_number(flow.mse_path_aware)
         << ",\"mean_latency\":" << json_number(flow.mean_latency)
         << ",\"max_latency\":" << json_number(flow.max_latency) << "}";
  }
  line << "]}}\n";
  const std::string text = std::move(line).str();
  digest_ = fnv1a64(text, digest_);
  os_ << text;
}

CampaignStats::CampaignStats() : latency_hist(0.0, 1000.0, 100) {}

void CampaignStats::add(const JobResult& job) {
  const workload::ScenarioResult& r = job.result;
  for (const workload::FlowResult& flow : r.flows) {
    flow_latency.add(flow.mean_latency);
    flow_mse_baseline.add(flow.mse_baseline);
    latency_hist.add(flow.mean_latency);
  }
  if (r.originated > 0) {
    preemptions_per_packet.add(static_cast<double>(r.preemptions) /
                               static_cast<double>(r.originated));
  }
  preemption_hist.add(r.preemptions);
  ++jobs;
  sim_events += r.events_executed;
}

void CampaignStats::merge(const CampaignStats& other) {
  flow_latency.merge(other.flow_latency);
  flow_mse_baseline.merge(other.flow_mse_baseline);
  preemptions_per_packet.merge(other.preemptions_per_packet);
  latency_hist.merge(other.latency_hist);
  preemption_hist.merge(other.preemption_hist);
  jobs += other.jobs;
  sim_events += other.sim_events;
}

MergedStatsSink::MergedStatsSink(std::size_t points) : per_point_(points) {}

namespace {

void write_streaming_stats(std::ostream& os,
                           const metrics::StreamingStats& s) {
  os << "{\"count\":" << s.count() << ",\"mean\":" << json_number(s.mean())
     << ",\"m2\":" << json_number(s.sum_squared_deviations())
     << ",\"min\":" << json_number(s.min())
     << ",\"max\":" << json_number(s.max()) << "}";
}

void write_histogram(std::ostream& os, const metrics::Histogram& h) {
  os << "{\"lo\":" << json_number(h.bin_lower_edge(0)) << ",\"hi\":"
     << json_number(h.bin_lower_edge(h.bin_count())) << ",\"bins\":"
     << h.bin_count() << ",\"underflow\":" << h.underflow() << ",\"overflow\":"
     << h.overflow() << ",\"counts\":[";
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    if (i > 0) os << ",";
    os << h.bin(i);
  }
  os << "]}";
}

void write_integer_histogram(std::ostream& os,
                             const metrics::IntegerHistogram& h) {
  const std::uint64_t values = h.total() > 0 ? h.max_value() + 1 : 0;
  os << "{\"counts\":[";
  for (std::uint64_t v = 0; v < values; ++v) {
    if (v > 0) os << ",";
    os << h.count(v);
  }
  os << "]}";
}

void write_campaign_stats(std::ostream& os, const CampaignStats& s) {
  os << "{\"jobs\":" << s.jobs << ",\"sim_events\":" << s.sim_events
     << ",\"flow_latency\":";
  write_streaming_stats(os, s.flow_latency);
  os << ",\"flow_mse_baseline\":";
  write_streaming_stats(os, s.flow_mse_baseline);
  os << ",\"preemptions_per_packet\":";
  write_streaming_stats(os, s.preemptions_per_packet);
  os << ",\"latency_hist\":";
  write_histogram(os, s.latency_hist);
  os << ",\"preemption_hist\":";
  write_integer_histogram(os, s.preemption_hist);
  os << "}";
}

}  // namespace

void write_campaign_stats_json(std::ostream& os,
                               const CampaignManifest& manifest,
                               const ShardSpec* shard,
                               const MergedStatsSink& stats,
                               std::optional<std::uint64_t> jsonl_fnv1a) {
  os << "{\n  \"campaign\": {\"schema\":" << manifest.schema << ",\"sweep\":\""
     << manifest.sweep << "\",\"tag\":\"" << manifest.tag
     << "\",\"base_seed\":" << manifest.base_seed << ",\"reps\":"
     << manifest.reps << ",\"points\":" << manifest.points
     << ",\"total_jobs\":" << manifest.total_jobs << ",\"config_hash\":\""
     << config_hash_hex(manifest.config_hash) << "\"},\n";
  if (shard != nullptr) {
    os << "  \"shard\": {\"index\":" << shard->index << ",\"count\":"
       << shard->count << ",\"jobs_owned\":" << stats.total().jobs;
    if (jsonl_fnv1a) {
      os << ",\"jsonl_fnv1a\":\"" << config_hash_hex(*jsonl_fnv1a) << "\"";
    }
    os << "},\n";
  }
  os << "  \"total\": ";
  write_campaign_stats(os, stats.total());
  os << ",\n  \"per_point\": [\n";
  for (std::size_t i = 0; i < stats.point_count(); ++i) {
    os << "    ";
    write_campaign_stats(os, stats.point(i));
    os << (i + 1 < stats.point_count() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

void print_campaign_summary(std::ostream& os, const CampaignStats& total,
                            std::size_t points, std::uint32_t reps) {
  os << "campaign: " << total.jobs << " jobs (" << points << " points x "
     << reps << " reps), " << total.sim_events << " simulator events\n"
     << "  flow mean latency: mean "
     << metrics::format_number(total.flow_latency.mean(), 2) << "  min "
     << metrics::format_number(total.flow_latency.min(), 2) << "  max "
     << metrics::format_number(total.flow_latency.max(), 2)
     << "\n  flow MSE (baseline adversary): mean "
     << metrics::format_number(total.flow_mse_baseline.mean(), 1)
     << "  stddev "
     << metrics::format_number(total.flow_mse_baseline.stddev(), 1) << "\n";
}

void MergedStatsSink::consume(const JobResult& job) {
  // Build the job's own accumulator, then merge — every job goes through the
  // same merge path, so per-point and total stats are pure in-order folds.
  CampaignStats one;
  one.add(job);
  total_.merge(one);
  per_point_.at(job.spec.point).merge(one);
}

}  // namespace tempriv::campaign
