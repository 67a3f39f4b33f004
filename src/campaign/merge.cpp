#include "campaign/merge.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "campaign/jsonio.h"
#include "campaign/runner.h"
#include "campaign/sweeps.h"

namespace tempriv::campaign {

namespace {

workload::PaperScenario parse_scenario(const JsonValue& s,
                                       std::uint64_t seed) {
  workload::PaperScenario scenario;
  scenario.interarrival = s.at("interarrival").as_double();
  scenario.packets_per_source = s.at("packets_per_source").as_u32();
  scenario.mean_delay = s.at("mean_delay").as_double();
  scenario.buffer_slots =
      static_cast<std::size_t>(s.at("buffer_slots").as_u64());
  scenario.hop_tx_delay = s.at("hop_tx_delay").as_double();
  scenario.scheme = workload::scheme_from_string(s.at("scheme").as_string());
  scenario.source =
      workload::source_kind_from_string(s.at("source").as_string());
  scenario.seed = seed;
  return scenario;
}

workload::ScenarioResult parse_result(const JsonValue& r) {
  workload::ScenarioResult result;
  result.originated = r.at("originated").as_u64();
  result.delivered = r.at("delivered").as_u64();
  result.preemptions = r.at("preemptions").as_u64();
  result.drops = r.at("drops").as_u64();
  result.mean_latency_all = r.at("mean_latency_all").as_double();
  result.sim_end_time = r.at("sim_end_time").as_double();
  result.events_executed = r.at("events_executed").as_u64();
  result.transmissions = r.at("transmissions").as_u64();
  result.packets_traced = r.at("packets_traced").as_u64();
  const JsonValue& flows = r.at("flows");
  if (!flows.is_array()) throw std::runtime_error("\"flows\" is not an array");
  result.flows.reserve(flows.items.size());
  for (const JsonValue& f : flows.items) {
    workload::FlowResult flow;
    flow.source = static_cast<net::NodeId>(f.at("source").as_u32());
    flow.hops = static_cast<std::uint16_t>(f.at("hops").as_u32());
    flow.delivered = f.at("delivered").as_u64();
    flow.mse_baseline = f.at("mse_baseline").as_double();
    flow.mse_adaptive = f.at("mse_adaptive").as_double();
    flow.mse_path_aware = f.at("mse_path_aware").as_double();
    flow.mean_latency = f.at("mean_latency").as_double();
    flow.max_latency = f.at("max_latency").as_double();
    result.flows.push_back(flow);
  }
  return result;
}

metrics::Histogram parse_histogram(const JsonValue& h) {
  std::vector<std::uint64_t> counts;
  const JsonValue& array = h.at("counts");
  if (!array.is_array()) throw std::runtime_error("\"counts\" is not an array");
  counts.reserve(array.items.size());
  for (const JsonValue& c : array.items) counts.push_back(c.as_u64());
  if (counts.size() != h.at("bins").as_u64()) {
    throw std::runtime_error("histogram counts/bins mismatch");
  }
  return metrics::Histogram::from_counts(
      h.at("lo").as_double(), h.at("hi").as_double(), std::move(counts),
      h.at("underflow").as_u64(), h.at("overflow").as_u64());
}

metrics::IntegerHistogram parse_integer_histogram(const JsonValue& h) {
  metrics::IntegerHistogram out;
  const JsonValue& array = h.at("counts");
  if (!array.is_array()) throw std::runtime_error("\"counts\" is not an array");
  for (std::size_t v = 0; v < array.items.size(); ++v) {
    out.add_count(v, array.items[v].as_u64());
  }
  return out;
}

/// Manifest fields two artifacts must agree on, as (name, value-rendering)
/// pairs for error messages.
std::vector<std::pair<std::string, std::string>> manifest_fields(
    const CampaignManifest& m) {
  return {{"schema", std::to_string(m.schema)},
          {"sweep", m.sweep},
          {"tag", m.tag},
          {"base_seed", std::to_string(m.base_seed)},
          {"reps", std::to_string(m.reps)},
          {"points", std::to_string(m.points)},
          {"total_jobs", std::to_string(m.total_jobs)},
          {"config_hash", config_hash_hex(m.config_hash)}};
}

}  // namespace

JobRecord parse_job_record(const std::string& line, const std::string& label) {
  try {
    const JsonValue doc = parse_json(line);
    JobRecord record;
    record.spec.index = static_cast<std::size_t>(doc.at("job").as_u64());
    record.spec.point = static_cast<std::size_t>(doc.at("point").as_u64());
    record.spec.replication = doc.at("replication").as_u32();
    record.spec.scenario =
        parse_scenario(doc.at("scenario"), doc.at("seed").as_u64());
    record.result = parse_result(doc.at("result"));
    return record;
  } catch (const std::exception& e) {
    throw std::runtime_error(label + ": bad job record: " + e.what());
  }
}

ShardInput read_shard_jsonl(std::istream& is, const std::string& label) {
  ShardInput shard;
  shard.label = label;
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error(label + ": empty shard JSONL (no header line)");
  }
  shard.header = parse_shard_header(line, label);
  while (std::getline(is, line)) {
    if (!line.empty()) shard.job_lines.push_back(std::move(line));
  }
  return shard;
}

void read_shard_stats(std::istream& is, const std::string& label,
                      ShardInput& shard) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  try {
    const JsonValue doc = parse_json(buffer.str());
    const JsonValue& campaign = doc.at("campaign");
    CampaignManifest stats_manifest;
    stats_manifest.schema = campaign.at("schema").as_u32();
    stats_manifest.sweep = campaign.at("sweep").as_string();
    stats_manifest.tag = campaign.at("tag").as_string();
    stats_manifest.base_seed = campaign.at("base_seed").as_u64();
    stats_manifest.reps = campaign.at("reps").as_u32();
    stats_manifest.points = campaign.at("points").as_u64();
    stats_manifest.total_jobs = campaign.at("total_jobs").as_u64();
    stats_manifest.config_hash = std::strtoull(
        campaign.at("config_hash").as_string().c_str(), nullptr, 16);
    for (std::size_t i = 0; i < manifest_fields(stats_manifest).size(); ++i) {
      const auto expect = manifest_fields(shard.header.manifest)[i];
      const auto got = manifest_fields(stats_manifest)[i];
      if (expect.second != got.second) {
        throw std::runtime_error("stats " + got.first + " (" + got.second +
                                 ") disagrees with the JSONL header (" +
                                 expect.second + ")");
      }
    }
    if (const JsonValue* block = doc.find("shard")) {
      if (block->at("index").as_u32() != shard.header.shard.index ||
          block->at("count").as_u32() != shard.header.shard.count) {
        throw std::runtime_error("stats shard block disagrees with the "
                                 "JSONL header");
      }
      if (const JsonValue* digest = block->find("jsonl_fnv1a")) {
        const std::string& hex = digest->as_string();
        if (hex.size() != 16 ||
            hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
          std::string message = "malformed jsonl_fnv1a ";
          message += hex;
          throw std::runtime_error(message);
        }
        shard.stats_jsonl_fnv1a = std::strtoull(hex.c_str(), nullptr, 16);
      }
    } else {
      throw std::runtime_error("stats file has no shard block");
    }
    const JsonValue& total = doc.at("total");
    shard.stats_jobs = total.at("jobs").as_u64();
    shard.stats_sim_events = total.at("sim_events").as_u64();
    shard.stats_latency_hist = parse_histogram(total.at("latency_hist"));
    shard.stats_preemption_hist =
        parse_integer_histogram(total.at("preemption_hist"));
    shard.has_stats = true;
  } catch (const std::exception& e) {
    throw std::runtime_error(label + ": bad stats artifact: " + e.what());
  }
}

std::string shard_stats_path(const std::string& jsonl_path) {
  const std::string suffix = ".jsonl";
  if (jsonl_path.size() > suffix.size() &&
      jsonl_path.compare(jsonl_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return jsonl_path.substr(0, jsonl_path.size() - suffix.size()) +
           ".stats.json";
  }
  return jsonl_path + ".stats.json";
}

ShardInput load_shard_files(const std::string& jsonl_path) {
  std::ifstream jsonl(jsonl_path, std::ios::binary);
  if (!jsonl) {
    throw std::runtime_error("cannot open shard file " + jsonl_path);
  }
  ShardInput shard = read_shard_jsonl(jsonl, jsonl_path);
  const std::string stats_path = shard_stats_path(jsonl_path);
  std::ifstream stats(stats_path, std::ios::binary);
  if (stats) read_shard_stats(stats, stats_path, shard);
  return shard;
}

MergeCheck check_shards(const std::vector<ShardInput>& shards) {
  MergeCheck check;
  auto error = [&check](const std::string& message) {
    check.errors.push_back(message);
  };
  if (shards.empty()) {
    error("no shard files given");
    return check;
  }

  const CampaignManifest& reference = shards.front().header.manifest;
  if (reference.schema != 1) {
    error(shards.front().label + ": unsupported shard schema " +
          std::to_string(reference.schema));
    return check;
  }
  const std::uint32_t shard_count = shards.front().header.shard.count;

  // Pairwise compatibility against the first artifact.
  for (const ShardInput& shard : shards) {
    const auto expect = manifest_fields(reference);
    const auto got = manifest_fields(shard.header.manifest);
    for (std::size_t i = 0; i < expect.size(); ++i) {
      if (expect[i].second != got[i].second) {
        error(shard.label + ": incompatible " + got[i].first + " (" +
              got[i].second + " here, " + expect[i].second + " in " +
              shards.front().label + ")");
      }
    }
    if (shard.header.shard.count != shard_count) {
      error(shard.label + ": shard count " +
            std::to_string(shard.header.shard.count) + " here, " +
            std::to_string(shard_count) + " in " + shards.front().label +
            " — job ranges would overlap");
    }
  }
  if (!check.ok()) return check;  // later checks assume one campaign

  // Exactly one artifact per shard index.
  std::map<std::uint32_t, const ShardInput*> by_index;
  for (const ShardInput& shard : shards) {
    const auto [it, inserted] =
        by_index.emplace(shard.header.shard.index, &shard);
    if (!inserted) {
      error("duplicate shard " + std::to_string(shard.header.shard.index) +
            "/" + std::to_string(shard_count) + ": " + it->second->label +
            " and " + shard.label);
    }
  }
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    if (by_index.find(i) == by_index.end()) {
      error("missing shard " + std::to_string(i) + "/" +
            std::to_string(shard_count));
    }
  }

  // Per-shard internal consistency: the header's claimed size, the actual
  // line count, and every record's position in the expansion order.
  for (const ShardInput& shard : shards) {
    const ShardSpec& spec = shard.header.shard;
    const std::uint64_t expected =
        shard_jobs_owned(reference.total_jobs, spec);
    if (shard.header.jobs_owned != expected) {
      error(shard.label + ": header claims " +
            std::to_string(shard.header.jobs_owned) + " jobs, the ownership "
            "rule gives shard " + std::to_string(spec.index) + "/" +
            std::to_string(spec.count) + " " + std::to_string(expected));
    }
    if (shard.job_lines.size() != shard.header.jobs_owned) {
      error(shard.label + ": " + std::to_string(shard.job_lines.size()) +
            " job records, header claims " +
            std::to_string(shard.header.jobs_owned) +
            " (truncated or padded file)");
      continue;
    }
    std::size_t expected_index = spec.index;
    for (const std::string& line : shard.job_lines) {
      JobRecord record;
      try {
        record = parse_job_record(line, shard.label);
      } catch (const std::exception& e) {
        error(e.what());
        break;
      }
      if (record.spec.index != expected_index) {
        error(shard.label + ": job " + std::to_string(record.spec.index) +
              " out of place (expected job " +
              std::to_string(expected_index) + " next" +
              (spec.owns(record.spec.index)
                   ? ")"
                   : "; the index is not even owned by shard " +
                         std::to_string(spec.index) + "/" +
                         std::to_string(spec.count) + ")"));
        break;
      }
      if (record.spec.replication >= reference.reps ||
          record.spec.point >= reference.points ||
          record.spec.index !=
              record.spec.point * reference.reps + record.spec.replication) {
        error(shard.label + ": job " + std::to_string(record.spec.index) +
              " has inconsistent point/replication coordinates");
        break;
      }
      expected_index += spec.count;
    }
    if (!shard.has_stats) {
      error(shard.label + ": stats sibling " +
            shard_stats_path(shard.label) + " missing or unreadable");
    } else if (shard.stats_jobs != shard.job_lines.size()) {
      error(shard.label + ": stats artifact covers " +
            std::to_string(shard.stats_jobs) + " jobs, JSONL has " +
            std::to_string(shard.job_lines.size()));
    } else {
      // The digest covers the job lines byte for byte, so an edit that
      // keeps a record valid JSON (one digit for another) still fails —
      // in a one-shard set too.
      std::uint64_t digest = kFnv1aOffset;
      for (const std::string& line : shard.job_lines) {
        digest = fnv1a64("\n", fnv1a64(line, digest));
      }
      if (!shard.stats_jsonl_fnv1a) {
        error(shard.label + ": stats shard block has no jsonl_fnv1a digest");
      } else if (*shard.stats_jsonl_fnv1a != digest) {
        error(shard.label + ": job records do not match the stats digest "
              "(jsonl_fnv1a " + config_hash_hex(*shard.stats_jsonl_fnv1a) +
              ", records hash to " + config_hash_hex(digest) + ")");
      }
    }
  }
  return check;
}

MergedCampaign merge_shards(const std::vector<ShardInput>& shards) {
  const MergeCheck check = check_shards(shards);
  if (!check.ok()) {
    std::string joined = "shard set cannot merge:";
    for (const std::string& e : check.errors) joined += "\n  " + e;
    throw std::runtime_error(joined);
  }

  const CampaignManifest& manifest = shards.front().header.manifest;
  const std::size_t total_jobs = manifest.total_jobs;

  // Interleave the verbatim lines by global job index and parse each record
  // once. check_shards proved per-shard ascending ownership, so this fills
  // every slot exactly once.
  std::vector<const std::string*> lines(total_jobs, nullptr);
  for (const ShardInput& shard : shards) {
    std::size_t index = shard.header.shard.index;
    for (const std::string& line : shard.job_lines) {
      lines[index] = &line;
      index += shard.header.shard.count;
    }
  }

  MergedCampaign merged;
  merged.manifest = manifest;
  std::vector<workload::PaperScenario> points(manifest.points);
  std::vector<workload::ScenarioResult> point_zero_results(manifest.points);
  MergedStatsSink stats(manifest.points);
  std::string jsonl;
  for (std::size_t index = 0; index < total_jobs; ++index) {
    const JobRecord record = parse_job_record(*lines[index], "merge");
    jsonl += *lines[index];
    jsonl += '\n';
    JobResult job;
    job.spec = record.spec;
    job.result = record.result;
    stats.consume(job);
    if (record.spec.replication == 0) {
      points[record.spec.point] = record.spec.scenario;
      point_zero_results[record.spec.point] = std::move(job.result);
    }
  }
  merged.jsonl = std::move(jsonl);
  merged.total = stats.total();

  // Combine the shards' own stats artifacts with the histogram merge path
  // and insist they agree with the replayed records: a stats sibling that
  // was swapped in from another run (or truncated) fails loudly here even
  // if its header was forged to match.
  metrics::Histogram latency = *shards.front().stats_latency_hist;
  metrics::IntegerHistogram preemptions =
      shards.front().stats_preemption_hist;
  std::uint64_t stats_jobs = shards.front().stats_jobs;
  std::uint64_t stats_events = shards.front().stats_sim_events;
  for (std::size_t i = 1; i < shards.size(); ++i) {
    latency.merge(*shards[i].stats_latency_hist);
    preemptions.merge(shards[i].stats_preemption_hist);
    stats_jobs += shards[i].stats_jobs;
    stats_events += shards[i].stats_sim_events;
  }
  const metrics::Histogram& replayed = stats.total().latency_hist;
  bool histograms_agree = latency.bin_count() == replayed.bin_count() &&
                          latency.underflow() == replayed.underflow() &&
                          latency.overflow() == replayed.overflow();
  for (std::size_t i = 0; histograms_agree && i < latency.bin_count(); ++i) {
    histograms_agree = latency.bin(i) == replayed.bin(i);
  }
  const metrics::IntegerHistogram& replayed_preempt =
      stats.total().preemption_hist;
  bool preempt_agree =
      preemptions.total() == replayed_preempt.total() &&
      (preemptions.total() == 0 ||
       preemptions.max_value() == replayed_preempt.max_value());
  for (std::uint64_t v = 0;
       preempt_agree && preemptions.total() > 0 && v <= preemptions.max_value();
       ++v) {
    preempt_agree = preemptions.count(v) == replayed_preempt.count(v);
  }
  if (stats_jobs != stats.total().jobs ||
      stats_events != stats.total().sim_events || !histograms_agree ||
      !preempt_agree) {
    throw std::runtime_error(
        "merged shard stats artifacts disagree with the JSONL records "
        "(stats sibling from a different run?)");
  }

  const Sweep sweep = sweep_for_merge(manifest.sweep, points);
  merged.table = sweep.table(point_zero_results);

  std::ostringstream stats_os;
  write_campaign_stats_json(stats_os, manifest, nullptr, stats);
  merged.stats_json = stats_os.str();
  return merged;
}

}  // namespace tempriv::campaign
