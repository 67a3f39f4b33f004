#include "campaign/shard.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "campaign/jsonio.h"
#include "campaign/sinks.h"

namespace tempriv::campaign {

namespace {

/// Strict unsigned parse of an entire token (no sign, no trailing junk).
bool parse_full_u64(const std::string& text, std::uint64_t& out) {
  // Digits only: strtoull alone would skip leading whitespace and accept
  // signs, so " 8" or "+8" would slip through.
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) return false;
  out = static_cast<std::uint64_t>(value);
  return true;
}

void fnv_mix(std::uint64_t& hash, const std::string& text) {
  // Field separator, so concatenated fields can't collide by reflowing.
  hash = fnv1a64("\x1f", fnv1a64(text, hash));
}

/// Canonical text form of one scenario point. Every field participates:
/// two campaigns whose grids differ in any parameter (including seeds and
/// the victim policy) must hash differently.
std::string scenario_fingerprint(const workload::PaperScenario& s) {
  std::ostringstream out;
  out << json_number(s.interarrival) << '|' << s.packets_per_source << '|'
      << json_number(s.mean_delay) << '|' << s.buffer_slots << '|'
      << json_number(s.hop_tx_delay) << '|' << workload::to_string(s.scheme)
      << '|' << static_cast<int>(s.victim) << '|'
      << json_number(s.adaptive_threshold) << '|' << s.seed << '|';
  for (const std::uint16_t hops : s.hop_counts) out << hops << ',';
  out << '|' << s.shared_tail << '|' << json_number(s.sink_weighting) << '|'
      << workload::to_string(s.source) << '|' << json_number(s.hop_jitter)
      << '|' << (s.trace ? 1 : 0);
  return out.str();
}

}  // namespace

ShardSpec parse_shard_spec(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    throw std::invalid_argument("bad shard spec '" + text +
                                "' (want i/N, e.g. 0/4)");
  }
  std::uint64_t index = 0;
  std::uint64_t count = 0;
  if (!parse_full_u64(text.substr(0, slash), index) ||
      !parse_full_u64(text.substr(slash + 1), count)) {
    throw std::invalid_argument("bad shard spec '" + text +
                                "' (want i/N, e.g. 0/4)");
  }
  if (count == 0 || count > 0xffffffffULL) {
    throw std::invalid_argument("bad shard spec '" + text +
                                "': shard count must be in [1, 2^32)");
  }
  if (index >= count) {
    throw std::invalid_argument("bad shard spec '" + text +
                                "': index must be < count");
  }
  return ShardSpec{static_cast<std::uint32_t>(index),
                   static_cast<std::uint32_t>(count)};
}

std::size_t shard_jobs_owned(std::size_t total_jobs, const ShardSpec& spec) {
  if (spec.index >= total_jobs) return 0;
  return (total_jobs - spec.index - 1) / spec.count + 1;
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash) noexcept {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;  // the FNV-64 prime
  }
  return hash;
}

std::uint64_t campaign_config_hash(
    const std::string& tag, std::uint32_t reps,
    const std::vector<workload::PaperScenario>& points) {
  std::uint64_t hash = kFnv1aOffset;
  fnv_mix(hash, tag);
  fnv_mix(hash, std::to_string(reps));
  for (const workload::PaperScenario& point : points) {
    fnv_mix(hash, scenario_fingerprint(point));
  }
  return hash;
}

CampaignManifest make_manifest(
    const std::string& sweep_name, const std::string& tag, std::uint32_t reps,
    const std::vector<workload::PaperScenario>& points) {
  if (points.empty()) {
    throw std::invalid_argument("make_manifest: sweep has no points");
  }
  CampaignManifest manifest;
  manifest.sweep = sweep_name;
  manifest.tag = tag;
  manifest.base_seed = points.front().seed;
  manifest.reps = reps;
  manifest.points = points.size();
  manifest.total_jobs = points.size() * reps;
  manifest.config_hash = campaign_config_hash(tag, reps, points);
  return manifest;
}

std::string config_hash_hex(std::uint64_t hash) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

std::string shard_header_json(const ShardHeader& header) {
  const CampaignManifest& m = header.manifest;
  std::ostringstream out;
  out << "{\"shard_header\":{\"schema\":" << m.schema << ",\"sweep\":\""
      << m.sweep << "\",\"tag\":\"" << m.tag << "\",\"base_seed\":"
      << m.base_seed << ",\"reps\":" << m.reps << ",\"points\":" << m.points
      << ",\"total_jobs\":" << m.total_jobs << ",\"config_hash\":\""
      << config_hash_hex(m.config_hash) << "\",\"shard_index\":"
      << header.shard.index << ",\"shard_count\":" << header.shard.count
      << ",\"jobs_owned\":" << header.jobs_owned << "}}";
  return out.str();
}

ShardHeader parse_shard_header(const std::string& line,
                               const std::string& label) {
  try {
    const JsonValue doc = parse_json(line);
    const JsonValue& h = doc.at("shard_header");
    ShardHeader header;
    header.manifest.schema = h.at("schema").as_u32();
    header.manifest.sweep = h.at("sweep").as_string();
    header.manifest.tag = h.at("tag").as_string();
    header.manifest.base_seed = h.at("base_seed").as_u64();
    header.manifest.reps = h.at("reps").as_u32();
    header.manifest.points = h.at("points").as_u64();
    header.manifest.total_jobs = h.at("total_jobs").as_u64();
    const std::string& hash = h.at("config_hash").as_string();
    if (hash.size() != 16 ||
        hash.find_first_not_of("0123456789abcdef") != std::string::npos) {
      throw std::runtime_error("config_hash is not 16 lowercase hex digits");
    }
    header.manifest.config_hash = std::strtoull(hash.c_str(), nullptr, 16);
    header.shard.index = h.at("shard_index").as_u32();
    header.shard.count = h.at("shard_count").as_u32();
    header.jobs_owned = h.at("jobs_owned").as_u64();
    if (header.shard.count == 0 || header.shard.index >= header.shard.count) {
      throw std::runtime_error("shard_index/shard_count out of range");
    }
    return header;
  } catch (const std::exception& e) {
    throw std::runtime_error(label + ": bad shard header: " + e.what());
  }
}

std::string shard_artifact_stem(const std::string& tag,
                                const ShardSpec& spec) {
  std::ostringstream out;
  out << tag << ".shard-" << spec.index << "-of-" << spec.count;
  return out.str();
}

}  // namespace tempriv::campaign
