// tempriv-campaign — run an experiment campaign (a named figure sweep or an
// ad-hoc parameter grid) in parallel on the campaign engine.
//
//   tempriv-campaign fig2a --jobs 8
//   tempriv-campaign buffer --reps 5 --jsonl buffer.jsonl
//   tempriv-campaign fig2a --shard 1/4          # run only shard 1 of 4
//   tempriv-campaign grid --interarrival 2:20:2 --buffer-slots 5,10,20
//       --scheme rcad,droptail --packets 500 --seed 42
//
// Scenario points × replications fan out across worker threads; results are
// merged in job-index order, so every output (CSV, JSONL, summary stats) is
// byte-identical whatever --jobs is. Named sweeps (the paper figures and
// ablations) write the CSVs in tests/golden/ at the default seed.
// Replication 0 of each point keeps the scenario's own seed; replication
// r > 0 reseeds with sim::derive_seed (see sim/seed.h).
//
// Sharding spreads one campaign over several hosts: --shard i/N runs only
// the jobs whose global index ≡ i (mod N) and writes self-describing shard
// artifacts, which tempriv-merge folds back into the same files a serial
// run writes, byte for byte. On one host, --jobs N threads do the work.

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <optional>
#include <string>
#include <vector>

#include "campaign/merge.h"
#include "campaign/sweeps.h"
#include "campaign/telemetry_io.h"
#include "tools/cli_number.h"
#include "tools/output.h"

namespace {

using namespace tempriv;

/// Bad command line (unknown flag, malformed number, ...): reported with a
/// pointer at --help and exit code 2, distinct from runtime failures (1).
using cli::UsageError;

int usage(std::ostream& os, int code) {
  os << "usage: tempriv-campaign <sweep>|grid [options]\n"
        "\n"
        "sweeps: fig2a (adversary MSE), fig2b (latency), fig3 (adaptive\n"
        "        adversary), buffer (buffer-size ablation)\n"
        "ablations: victim (RCAD victim rule), decomposition (sec. 3.3 delay\n"
        "        decomposition), trunk (shared-trunk length), adversaries\n"
        "        (adversary ladder), traffic (periodic/Poisson/bursty)\n"
        "\n"
        "options:\n"
        "  --jobs N             worker threads (default: hardware concurrency)\n"
        "  --reps R             replications per scenario point (default 1)\n"
        "  --seed S             base seed for every point (default: paper seed)\n"
        "  --shard i/N          run only shard i of N (jobs with index % N == i)\n"
        "                       and write shard artifacts for tempriv-merge\n"
        "  --jsonl PATH         write the per-job JSONL result log here\n"
        "                       (default: <out>/<tag>.jsonl, or the\n"
        "                       shard-stamped stem under --shard i/N)\n"
        "  --out DIR            results directory for the CSV and the default\n"
        "                       JSONL (default: the current directory)\n"
        "  --telemetry PATH     write a telemetry snapshot (event-queue,\n"
        "                       buffer and forwarding counters, memory\n"
        "                       gauges, phase spans) here after the run;\n"
        "                       results are byte-identical with or without it\n"
        "  --quiet              suppress the progress meter\n"
        "  --trace              enable per-packet tracing in every scenario\n"
        "                       (reports total link transmissions; untraced\n"
        "                       runs never pay the tracer's probe)\n"
        "\n"
        "grid axes (comma lists or lo:hi:step ranges; grid only):\n"
        "  --interarrival LIST  1/lambda values (default 2)\n"
        "  --buffer-slots LIST  buffer sizes k (default 10)\n"
        "  --scheme LIST        nodelay,unlimited,droptail,rcad (default rcad)\n"
        "  --packets N          packets per source (default 1000)\n"
        "  --mean-delay X       mean privacy delay 1/mu (default 30)\n";
  return code;
}

std::vector<double> parse_axis(const std::string& flag,
                               const std::string& text) {
  std::vector<double> values;
  if (text.find(':') != std::string::npos) {  // lo:hi:step range
    std::vector<std::string> parts;
    std::istringstream in(text);
    std::string part;
    while (std::getline(in, part, ':')) parts.push_back(part);
    if (parts.size() != 3) {
      throw UsageError(flag + " wants lo:hi:step, got '" + text + "'");
    }
    const double lo = cli::parse_double(flag, parts[0]);
    const double hi = cli::parse_double(flag, parts[1]);
    const double step = cli::parse_double(flag, parts[2]);
    if (step <= 0.0 || hi < lo) {
      throw UsageError(flag + " wants lo:hi:step with step > 0 and hi >= lo, "
                       "got '" + text + "'");
    }
    for (double v = lo; v <= hi; v += step) values.push_back(v);
    return values;
  }
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) values.push_back(cli::parse_double(flag, item));
  }
  if (values.empty()) throw UsageError(flag + " got an empty list");
  return values;
}

std::vector<workload::Scheme> parse_schemes(const std::string& text) {
  std::vector<workload::Scheme> schemes;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    try {
      schemes.push_back(workload::scheme_from_string(item));
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
  }
  if (schemes.empty()) throw UsageError("--scheme got an empty list");
  return schemes;
}

struct Options {
  std::string sweep_name;
  std::size_t jobs = 0;  // 0 = hardware concurrency
  std::uint32_t reps = 1;
  bool quiet = false;
  bool trace = false;
  bool seed_set = false;
  std::uint64_t seed = 0;
  std::string out_dir = cli::kDefaultOutDir;
  std::string jsonl_path;
  std::string telemetry_path;
  // Set by --shard i/N. "0/1" is a one-shard campaign that still stamps
  // shard artifacts: the determinism suite merges it to prove
  // merge(1 shard) == serial.
  std::optional<campaign::ShardSpec> shard;
  campaign::GridSpec grid;
};

campaign::ShardSpec parse_shard_arg(const std::string& text) {
  try {
    return campaign::parse_shard_spec(text);
  } catch (const std::invalid_argument& e) {
    throw UsageError(std::string(e.what()) +
                     "; --shard i/N splits a campaign across hosts, and "
                     "--jobs N runs it on N threads of this one");
  }
}

Options parse_options(int argc, char** argv) {
  Options opt;
  opt.sweep_name = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError("missing value for " + arg);
      return argv[++i];
    };
    const bool grid_axis = arg == "--interarrival" || arg == "--buffer-slots" ||
                           arg == "--scheme" || arg == "--packets" ||
                           arg == "--mean-delay";
    if (grid_axis && opt.sweep_name != "grid") {
      throw UsageError(arg + " sets a grid axis; sweep '" + opt.sweep_name +
                       "' has fixed points");
    }
    if (arg == "--jobs") {
      opt.jobs = cli::parse_uint<std::size_t>(arg, value());
    } else if (arg == "--reps") {
      opt.reps = cli::parse_uint<std::uint32_t>(arg, value());
      if (opt.reps == 0) throw UsageError("--reps must be >= 1");
    } else if (arg == "--seed") {
      opt.seed = cli::parse_uint<std::uint64_t>(arg, value());
      opt.seed_set = true;
    } else if (arg == "--shard") {
      opt.shard = parse_shard_arg(value());
    } else if (arg == "--jsonl") {
      opt.jsonl_path = value();
    } else if (arg == "--telemetry") {
      opt.telemetry_path = value();
    } else if (arg == "--out") {
      opt.out_dir = value();
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--interarrival") {
      opt.grid.interarrivals = parse_axis(arg, value());
    } else if (arg == "--buffer-slots") {
      opt.grid.buffer_slots.clear();
      for (const double v : parse_axis(arg, value())) {
        if (v < 0.0 || v != std::floor(v)) {
          throw UsageError("--buffer-slots wants non-negative integers");
        }
        opt.grid.buffer_slots.push_back(static_cast<std::size_t>(v));
      }
    } else if (arg == "--scheme") {
      opt.grid.schemes = parse_schemes(value());
    } else if (arg == "--packets") {
      opt.grid.base.packets_per_source =
          cli::parse_uint<std::uint32_t>(arg, value());
    } else if (arg == "--mean-delay") {
      opt.grid.base.mean_delay = cli::parse_double(arg, value());
    } else {
      throw UsageError("unknown option: " + arg);
    }
  }
  return opt;
}

/// Runs the jobs of shard `opt.shard` to its two artifact files (plus an
/// optional telemetry snapshot).
int run_shard(const campaign::Sweep& sweep, const Options& opt) {
  const campaign::ShardSpec shard = *opt.shard;
  const std::size_t total_jobs = sweep.points.size() * opt.reps;
  const std::size_t owned = campaign::shard_jobs_owned(total_jobs, shard);
  const std::string jsonl_path =
      opt.jsonl_path.empty()
          ? cli::in_dir(opt.out_dir,
                        campaign::shard_artifact_stem(sweep.tag, shard) +
                            ".jsonl")
          : opt.jsonl_path;

  campaign::ProgressReporter progress(std::cerr, owned);
  campaign::RunnerOptions options;
  options.threads = opt.jobs;
  if (!opt.quiet) options.progress = &progress;
  std::ofstream jsonl_file = cli::open_output(jsonl_path);
  std::ofstream stats_file =
      cli::open_output(campaign::shard_stats_path(jsonl_path));
  campaign::TelemetrySink telemetry;
  std::vector<campaign::ResultSink*> sinks;
  if (!opt.telemetry_path.empty()) sinks.push_back(&telemetry);
  campaign::run_sweep_shard(sweep, options, opt.reps, shard, jsonl_file,
                            stats_file, sinks);
  jsonl_file.flush();
  stats_file.flush();
  if (!jsonl_file || !stats_file) {
    throw std::runtime_error("short write on shard artifacts for " +
                             jsonl_path);
  }
  if (!opt.quiet) progress.finish();
  if (!opt.telemetry_path.empty()) {
    campaign::write_telemetry_file(opt.telemetry_path, telemetry.snapshot());
  }

  std::cout << "shard " << shard.index << "/" << shard.count << ": "
            << owned << " of " << total_jobs << " jobs\n"
            << "(jsonl: " << jsonl_path << ")\n"
            << "(stats: " << campaign::shard_stats_path(jsonl_path) << ")\n";
  if (!opt.telemetry_path.empty()) {
    std::cout << "(telemetry: " << opt.telemetry_path << ")\n";
  }
  return 0;
}

int run_serial(const campaign::Sweep& sweep, const Options& opt) {
  const std::size_t total_jobs = sweep.points.size() * opt.reps;
  campaign::ProgressReporter progress(std::cerr, total_jobs);
  campaign::RunnerOptions options;
  options.threads = opt.jobs;
  if (!opt.quiet) options.progress = &progress;

  const std::string jsonl_path =
      opt.jsonl_path.empty()
          ? cli::in_dir(opt.out_dir, sweep.tag + ".jsonl")
          : opt.jsonl_path;
  std::ofstream jsonl_file = cli::open_output(jsonl_path);
  campaign::JsonlSink jsonl(jsonl_file);
  campaign::MergedStatsSink stats(sweep.points.size());
  campaign::TelemetrySink telemetry;
  std::vector<campaign::ResultSink*> sinks = {&jsonl, &stats};
  if (!opt.telemetry_path.empty()) sinks.push_back(&telemetry);

  const campaign::SweepRun run =
      campaign::run_sweep(sweep, options, opt.reps, sinks);
  if (!opt.quiet) progress.finish();

  // The stats artifact of the whole campaign — the file an N-shard merge
  // must reproduce byte for byte.
  const campaign::CampaignManifest manifest = campaign::make_manifest(
      sweep.name, sweep.tag, opt.reps, sweep.points);
  const std::string stats_path = campaign::shard_stats_path(jsonl_path);
  {
    std::ofstream stats_file = cli::open_output(stats_path);
    campaign::write_campaign_stats_json(stats_file, manifest, nullptr, stats);
  }

  if (!opt.telemetry_path.empty()) {
    campaign::write_telemetry_file(opt.telemetry_path, telemetry.snapshot());
  }

  cli::emit_table(opt.out_dir, sweep.tag, run.table);
  std::cout << "(jsonl: " << jsonl_path << ")\n"
            << "(stats: " << stats_path << ")\n";
  if (!opt.telemetry_path.empty()) {
    std::cout << "(telemetry: " << opt.telemetry_path << ")\n";
  }
  campaign::print_campaign_summary(std::cout, stats.total(),
                                   sweep.points.size(), opt.reps);
  return 0;
}

int run(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  campaign::Sweep sweep;
  try {
    sweep = opt.sweep_name == "grid" ? campaign::grid_sweep(opt.grid)
                                     : campaign::make_named_sweep(opt.sweep_name);
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
  if (opt.seed_set) {
    for (workload::PaperScenario& point : sweep.points) point.seed = opt.seed;
  }
  if (opt.trace) {
    for (workload::PaperScenario& point : sweep.points) point.trace = true;
  }

  return opt.shard ? run_shard(sweep, opt) : run_serial(sweep, opt);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string first = argv[1];
  if (first == "--help" || first == "-h") return usage(std::cout, 0);
  try {
    return run(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "tempriv-campaign: " << e.what() << "\n"
              << "run 'tempriv-campaign --help' for usage\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "tempriv-campaign: " << e.what() << "\n";
    return 1;
  }
}
