#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/job.h"

namespace tempriv::campaign {

/// Shard `index` of a campaign split `count` ways. Ownership is by global
/// job index modulo `count` (shard i owns jobs i, i+N, i+2N, ...), so the
/// owned set is a pure function of (total_jobs, spec): no shard needs to
/// know what any other shard is doing, and — because every job's seed
/// derives from the job spec alone (sim::derive_seed) — shard membership
/// never changes a single RNG draw. Running shard 0/1 is the whole
/// campaign.
struct ShardSpec {
  std::uint32_t index = 0;
  std::uint32_t count = 1;

  bool is_all() const noexcept { return count == 1; }
  bool owns(std::size_t job_index) const noexcept {
    return job_index % count == index;
  }
};

/// Parses "i/N" (e.g. "2/8"). Requires N >= 1 and i < N. Throws
/// std::invalid_argument with a human-readable message otherwise.
ShardSpec parse_shard_spec(const std::string& text);

/// Number of jobs shard `spec` owns out of `total_jobs`.
std::size_t shard_jobs_owned(std::size_t total_jobs, const ShardSpec& spec);

/// The identity of a campaign: everything two shard artifacts must agree on
/// before their contents may be combined. `config_hash` fingerprints the
/// full expanded scenario grid (every parameter of every point, plus the
/// replication count), so artifacts from differently-configured runs of the
/// same sweep name can never merge silently.
struct CampaignManifest {
  std::uint32_t schema = 1;
  std::string sweep;            ///< CLI sweep name ("fig2a", "grid", ...)
  std::string tag;              ///< artifact tag ("fig2a_mse", ...)
  std::uint64_t base_seed = 0;  ///< seed of the first scenario point
  std::uint32_t reps = 1;
  std::uint64_t points = 0;
  std::uint64_t total_jobs = 0;  ///< points * reps
  std::uint64_t config_hash = 0;
};

/// FNV-1a-64 offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// Continues an FNV-1a-64 hash over `bytes` (start from kFnv1aOffset). The
/// one hash of the campaign layer: config hashes and shard JSONL digests.
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t hash = kFnv1aOffset) noexcept;

/// FNV-1a-64 over a canonical serialization of (tag, reps, every scenario
/// point). Any change to any parameter of any point changes the hash.
std::uint64_t campaign_config_hash(
    const std::string& tag, std::uint32_t reps,
    const std::vector<workload::PaperScenario>& points);

/// Builds the manifest for a sweep about to run with `reps` replications.
CampaignManifest make_manifest(const std::string& sweep_name,
                               const std::string& tag, std::uint32_t reps,
                               const std::vector<workload::PaperScenario>& points);

/// Self-description at the top of every shard artifact. `jobs_owned` lets a
/// reader detect truncated files without re-deriving the ownership rule.
struct ShardHeader {
  CampaignManifest manifest;
  ShardSpec shard;
  std::uint64_t jobs_owned = 0;
};

/// One-line JSON shard header (the first line of a shard JSONL artifact):
///   {"shard_header":{"schema":1,"sweep":...,"tag":...,"base_seed":...,
///    "reps":...,"points":...,"total_jobs":...,"config_hash":"<16 hex>",
///    "shard_index":i,"shard_count":N,"jobs_owned":M}}
std::string shard_header_json(const ShardHeader& header);

/// Parses a shard-header line. Throws std::runtime_error (with `label` in
/// the message) if the line is not a well-formed shard header.
ShardHeader parse_shard_header(const std::string& line,
                               const std::string& label);

/// Artifact stem for shard files: "<tag>.shard-<i>-of-<N>" (the shard JSONL
/// is "<stem>.jsonl", its stats sibling "<stem>.stats.json").
std::string shard_artifact_stem(const std::string& tag, const ShardSpec& spec);

/// 16-lower-hex rendering of a 64-bit hash (the config hash in headers, the
/// JSONL digest in shard stats files).
std::string config_hash_hex(std::uint64_t hash);

}  // namespace tempriv::campaign
