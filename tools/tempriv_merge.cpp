// tempriv-merge — validate and combine per-shard campaign artifacts back
// into the files a serial run writes, byte for byte.
//
//   tempriv-merge out/fig2a_mse.shard-*-of-4.jsonl
//   tempriv-merge --check out/fig2a_mse.shard-*-of-4.jsonl
//   tempriv-merge --jsonl merged.jsonl shard0.jsonl shard1.jsonl
//
// Each positional argument is a shard JSONL artifact written by
// `tempriv-campaign --shard i/N`; its `.stats.json` sibling is loaded by
// naming convention. The merge first validates the set (matching manifests
// and config hash, no duplicate or missing shards, every record on its
// owner's stride, stats siblings agreeing with their JSONL), then:
//
//  - interleaves the shards' verbatim JSONL lines in ascending job index —
//    the serial log is reproduced without recomputing a single simulation;
//  - replays the parsed records through the merged-stats sink in the same
//    job-index order the serial run consumed them (Welford folds are
//    order-sensitive, so in-order replay is what makes the stats artifact
//    byte-identical), cross-checking the shard stats histograms via
//    Histogram::merge / IntegerHistogram::merge;
//  - re-renders the figure CSV from the replication-0 results.
//
// --check performs only the validation and reports every problem found
// (missing/duplicate shards, incompatible manifests, truncated files),
// writing nothing. Exit codes: 0 ok, 1 validation/merge failure, 2 usage.

#include <chrono>
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/merge.h"
#include "campaign/telemetry_io.h"
#include "tools/output.h"

namespace {

using namespace tempriv;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

int usage(std::ostream& os, int code) {
  os << "usage: tempriv-merge [options] <shard.jsonl>...\n"
        "\n"
        "options:\n"
        "  --check         validate the shard set and report every problem\n"
        "                  (missing/duplicate/incompatible shards, truncated\n"
        "                  files); writes nothing. exit 0 iff mergeable\n"
        "  --jsonl PATH    write the merged JSONL here\n"
        "                  (default: <out>/<tag>.jsonl)\n"
        "  --telemetry PATH  merge the shards' .telemetry.json siblings\n"
        "                  (sum counters, max gauges, merge histograms and\n"
        "                  spans) and write the combined snapshot here;\n"
        "                  errors if any shard lacks its sibling\n"
        "  --out DIR       results directory for the CSV and the default\n"
        "                  JSONL (default: the current directory)\n"
        "\n"
        "Merged outputs (JSONL, stats JSON, figure CSV) are byte-identical\n"
        "to the serial `tempriv-campaign` run of the same campaign.\n";
  return code;
}

int run(int argc, char** argv) {
  bool check_only = false;
  std::string out_dir = cli::kDefaultOutDir;
  std::string jsonl_path;
  std::string telemetry_path;
  std::vector<std::string> shard_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--check") {
      check_only = true;
    } else if (arg == "--jsonl") {
      jsonl_path = value();
    } else if (arg == "--telemetry") {
      telemetry_path = value();
    } else if (arg == "--out") {
      out_dir = value();
    } else if (!arg.empty() && arg[0] == '-') {
      throw UsageError("unknown option: " + arg);
    } else {
      shard_paths.push_back(arg);
    }
  }
  if (shard_paths.empty()) {
    throw UsageError("no shard artifacts given");
  }

  std::vector<campaign::ShardInput> shards;
  shards.reserve(shard_paths.size());
  for (const std::string& path : shard_paths) {
    shards.push_back(campaign::load_shard_files(path));
  }

  if (check_only) {
    const campaign::MergeCheck check = campaign::check_shards(shards);
    if (check.ok()) {
      const campaign::CampaignManifest& m = shards.front().header.manifest;
      std::cout << "ok: " << shards.size() << " shard(s) of " << m.sweep
                << " (" << m.total_jobs << " jobs, config "
                << campaign::config_hash_hex(m.config_hash)
                << ") ready to merge\n";
      return 0;
    }
    for (const std::string& error : check.errors) {
      std::cerr << "tempriv-merge: " << error << "\n";
    }
    std::cerr << "tempriv-merge: " << check.errors.size()
              << " problem(s); shard set cannot merge\n";
    return 1;
  }

  const auto merge_start = std::chrono::steady_clock::now();
  const campaign::MergedCampaign merged = campaign::merge_shards(shards);
  const auto merge_nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - merge_start)
          .count());
  if (jsonl_path.empty()) {
    jsonl_path = cli::in_dir(out_dir, merged.manifest.tag + ".jsonl");
  }
  cli::open_output(jsonl_path) << merged.jsonl;
  const std::string stats_path = campaign::shard_stats_path(jsonl_path);
  cli::open_output(stats_path) << merged.stats_json;

  if (!telemetry_path.empty()) {
    // The shard snapshots, plus this process's own merge span.
    campaign::TelemetrySnapshot combined;
    combined.spans["merge"] = {1, merge_nanos};
    for (const std::string& path : shard_paths) {
      combined.merge(campaign::load_telemetry_file(
          campaign::shard_telemetry_path(path)));
    }
    campaign::write_telemetry_file(telemetry_path, combined);
  }

  cli::emit_table(out_dir, merged.manifest.tag, merged.table);
  std::cout << "(jsonl: " << jsonl_path << ")\n"
            << "(stats: " << stats_path << ")\n";
  if (!telemetry_path.empty()) {
    std::cout << "(telemetry: " << telemetry_path << ")\n";
  }
  campaign::print_campaign_summary(std::cout, merged.total,
                                   merged.manifest.points,
                                   merged.manifest.reps);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string first = argv[1];
  if (first == "--help" || first == "-h") return usage(std::cout, 0);
  try {
    return run(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "tempriv-merge: " << e.what() << "\n"
              << "run 'tempriv-merge --help' for usage\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "tempriv-merge: " << e.what() << "\n";
    return 1;
  }
}
