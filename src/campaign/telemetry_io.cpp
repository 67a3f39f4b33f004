#include "campaign/telemetry_io.h"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "campaign/jsonio.h"
#include "core/delay_buffer.h"

namespace tempriv::campaign {

static_assert(core::DelayBuffer::kOccupancyBuckets == kHistBuckets,
              "buf.occupancy is copied bucket for bucket");

namespace {

const char* preempt_key(core::VictimPolicy policy) noexcept {
  switch (policy) {
    case core::VictimPolicy::kShortestRemaining:
      return "buf.preempt.shortest_remaining";
    case core::VictimPolicy::kLongestRemaining:
      return "buf.preempt.longest_remaining";
    case core::VictimPolicy::kRandom:
      return "buf.preempt.random";
    case core::VictimPolicy::kOldest:
      return "buf.preempt.oldest";
  }
  return "buf.preempt.unknown";
}

/// Where a scheme's buffered forwards are filed. A no-delay network has no
/// buffering node, so whatever key it gets receives 0.
const char* buffered_forward_key(workload::Scheme scheme) noexcept {
  switch (scheme) {
    case workload::Scheme::kUnlimitedDelay:
      return "net.forward.unlimited";
    case workload::Scheme::kDropTail:
      return "net.forward.droptail";
    case workload::Scheme::kNoDelay:
    case workload::Scheme::kRcad:
      return "net.forward.rcad";
  }
  return "net.forward.rcad";
}

void raise_gauge(std::uint64_t& gauge, std::uint64_t value) noexcept {
  if (value > gauge) gauge = value;
}

void add_span(SpanStat& span, std::uint64_t nanos) noexcept {
  ++span.count;
  span.nanos += nanos;
}

void write_string(std::ostream& os, const std::string& text) {
  os << '"';
  for (const char c : text) {
    // Metric names and span paths are plain identifiers; escape the two
    // JSON-mandatory characters anyway so the writer is safe for any key.
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void TelemetrySnapshot::merge(const TelemetrySnapshot& other) {
  for (const auto& [key, value] : other.counters) counters[key] += value;
  for (const auto& [key, value] : other.gauges) raise_gauge(gauges[key], value);
  for (const auto& [key, value] : other.histograms) {
    HistogramCounts& hist = histograms[key];
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      hist.buckets[b] += value.buckets[b];
    }
  }
  for (const auto& [key, value] : other.spans) {
    SpanStat& span = spans[key];
    span.count += value.count;
    span.nanos += value.nanos;
  }
}

TelemetrySink::TelemetrySink() {
  for (const char* key :
       {"eq.schedule_heap", "eq.schedule_fifo", "eq.fifo_diverted",
        "eq.rekey", "buf.preempt.shortest_remaining",
        "buf.preempt.longest_remaining", "buf.preempt.random",
        "buf.preempt.oldest", "net.forward.immediate", "net.forward.unlimited",
        "net.forward.droptail", "net.forward.rcad",
        "net.droptail_dropped", "campaign.jobs"}) {
    snapshot_.counters[key] = 0;
  }
  for (const char* key :
       {"eq.peak_depth", "buf.peak_occupancy", "mem.network_bytes",
        "mem.topology_bytes", "mem.routing_bytes"}) {
    snapshot_.gauges[key] = 0;
  }
  snapshot_.histograms["buf.occupancy"] = HistogramCounts{};
  snapshot_.histograms["campaign.job_wall_us"] = HistogramCounts{};
}

void TelemetrySink::consume(const JobResult& job) {
  const workload::ScenarioResult& r = job.result;
  const workload::RunTelemetry& t = r.telemetry;
  auto& counters = snapshot_.counters;
  counters["eq.schedule_heap"] += t.schedule_heap;
  counters["eq.schedule_fifo"] += t.schedule_fifo;
  counters["eq.fifo_diverted"] += t.fifo_diverted;
  counters["eq.rekey"] += t.rekeys;
  counters[preempt_key(job.spec.scenario.victim)] += r.preemptions;
  counters["net.forward.immediate"] += t.forward_immediate;
  counters[buffered_forward_key(job.spec.scenario.scheme)] +=
      t.forward_buffered;
  counters["net.droptail_dropped"] += r.drops;
  ++counters["campaign.jobs"];

  auto& gauges = snapshot_.gauges;
  raise_gauge(gauges["eq.peak_depth"], t.peak_events);
  raise_gauge(gauges["buf.peak_occupancy"], t.peak_occupancy);
  raise_gauge(gauges["mem.network_bytes"], t.network_bytes);
  raise_gauge(gauges["mem.topology_bytes"], t.topology_bytes);
  raise_gauge(gauges["mem.routing_bytes"], t.routing_bytes);

  HistogramCounts& occupancy = snapshot_.histograms["buf.occupancy"];
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    occupancy.buckets[b] += t.occupancy[b];
  }
  ++snapshot_.histograms["campaign.job_wall_us"].buckets[hist_bucket(
      static_cast<std::uint64_t>(job.wall_seconds * 1e6))];

  add_span(snapshot_.spans["job"],
           static_cast<std::uint64_t>(job.wall_seconds * 1e9));
  add_span(snapshot_.spans["job/build"], t.build_ns);
  add_span(snapshot_.spans["job/simulate"], t.simulate_ns);
  add_span(snapshot_.spans["job/score"], t.score_ns);
}

void write_telemetry_json(std::ostream& os,
                          const TelemetrySnapshot& snapshot) {
  os << "{\"telemetry\": {\"schema\": 2,\n"
     << " \"counters\": {";
  const char* sep = "\n  ";
  for (const auto& [key, value] : snapshot.counters) {
    os << sep;
    write_string(os, key);
    os << ": " << value;
    sep = ",\n  ";
  }
  os << "\n },\n \"gauges\": {";
  sep = "\n  ";
  for (const auto& [key, value] : snapshot.gauges) {
    os << sep;
    write_string(os, key);
    os << ": " << value;
    sep = ",\n  ";
  }
  os << "\n },\n \"histograms\": {";
  sep = "\n  ";
  for (const auto& [key, hist] : snapshot.histograms) {
    os << sep;
    write_string(os, key);
    os << ": [";
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (b != 0) os << ",";
      os << hist.buckets[b];
    }
    os << "]";
    sep = ",\n  ";
  }
  os << "\n },\n \"spans\": {";
  sep = "\n  ";
  for (const auto& [key, span] : snapshot.spans) {
    os << sep;
    write_string(os, key);
    os << ": {\"count\": " << span.count << ", \"nanos\": " << span.nanos
       << "}";
    sep = ",\n  ";
  }
  os << "\n }\n}}\n";
}

std::string shard_telemetry_path(const std::string& jsonl_path) {
  const std::string suffix = ".jsonl";
  if (jsonl_path.size() > suffix.size() &&
      jsonl_path.compare(jsonl_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return jsonl_path.substr(0, jsonl_path.size() - suffix.size()) +
           ".telemetry.json";
  }
  return jsonl_path + ".telemetry.json";
}

TelemetrySnapshot parse_telemetry_json(std::string_view text) {
  const JsonValue doc = parse_json(text);
  const JsonValue& root = doc.at("telemetry");
  const std::uint32_t schema = root.at("schema").as_u32();
  if (schema != 2) {
    throw std::runtime_error("unsupported telemetry schema " +
                             std::to_string(schema));
  }
  TelemetrySnapshot snapshot;
  for (const auto& [key, value] : root.at("counters").members) {
    snapshot.counters[key] = value.as_u64();
  }
  for (const auto& [key, value] : root.at("gauges").members) {
    snapshot.gauges[key] = value.as_u64();
  }
  for (const auto& [key, value] : root.at("histograms").members) {
    if (!value.is_array() || value.items.size() != kHistBuckets) {
      throw std::runtime_error("histogram \"" + key + "\" must be an array "
                               "of " + std::to_string(kHistBuckets) +
                               " buckets");
    }
    HistogramCounts& hist = snapshot.histograms[key];
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      hist.buckets[b] = value.items[b].as_u64();
    }
  }
  for (const auto& [key, value] : root.at("spans").members) {
    SpanStat& span = snapshot.spans[key];
    span.count = value.at("count").as_u64();
    span.nanos = value.at("nanos").as_u64();
  }
  return snapshot;
}

TelemetrySnapshot load_telemetry_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("cannot open telemetry snapshot " + path);
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  try {
    return parse_telemetry_json(buffer.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void write_telemetry_file(const std::string& path,
                          const TelemetrySnapshot& snapshot) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw std::runtime_error("cannot write telemetry snapshot " + path);
  }
  write_telemetry_json(os, snapshot);
  os.flush();
  if (!os) {
    throw std::runtime_error("write failed for telemetry snapshot " + path);
  }
}

}  // namespace tempriv::campaign
