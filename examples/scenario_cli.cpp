// scenario_cli — run any variant of the paper's evaluation scenario from
// the command line; prints the per-flow privacy/latency table and can dump
// CSV for plotting.
//
//   scenario_cli --scheme rcad --interarrival 2 --packets 1000
//                --mean-delay 30 --buffer 10 --victim shortest
//                --hops 15,22,9,11 --shared-tail 3 --seed 42
//
// Run with --help for the full flag list.

#include <cstdint>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/table.h"
#include "tools/cli_number.h"
#include "workload/scenario.h"

namespace {

using namespace tempriv;

[[noreturn]] void usage(int exit_code) {
  std::cout <<
      "usage: scenario_cli [options]\n"
      "  --scheme S        nodelay | unlimited | droptail | rcad\n"
      "                    (default rcad; no-delay and drop-tail also work)\n"
      "  --interarrival X  source inter-arrival time 1/lambda (default 2)\n"
      "  --packets N       packets per source (default 1000)\n"
      "  --mean-delay X    mean privacy delay 1/mu (default 30)\n"
      "  --buffer K        buffer slots per node (default 10)\n"
      "  --victim V        shortest | longest | random | oldest (default shortest)\n"
      "  --hops LIST       comma-separated per-flow hop counts (default 15,22,9,11)\n"
      "  --shared-tail T   hops shared by all flows before the sink (default 3)\n"
      "  --sink-weighting W  0..1, delay profile bias away from the sink (default 0)\n"
      "  --source S        periodic | poisson | bursty (default periodic)\n"
      "  --jitter J        per-hop MAC jitter, uniform [0,J) (default 0)\n"
      "  --tx-delay T      per-hop transmission delay tau (default 1)\n"
      "  --seed S          RNG seed (default paper seed)\n"
      "  --csv FILE        also write the per-flow table as CSV\n"
      "  --help            this text\n";
  std::exit(exit_code);
}

core::VictimPolicy parse_victim(const std::string& name) {
  if (name == "shortest") return core::VictimPolicy::kShortestRemaining;
  if (name == "longest") return core::VictimPolicy::kLongestRemaining;
  if (name == "random") return core::VictimPolicy::kRandom;
  if (name == "oldest") return core::VictimPolicy::kOldest;
  std::cerr << "unknown victim policy: " << name << "\n";
  usage(2);
}

std::vector<std::uint16_t> parse_hops(const std::string& list) {
  std::vector<std::uint16_t> hops;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto value = cli::parse_uint<std::uint16_t>("--hops", item);
    if (value == 0) {
      std::cerr << "bad hop count: " << item << "\n";
      usage(2);
    }
    hops.push_back(value);
  }
  if (hops.empty()) {
    std::cerr << "--hops needs at least one flow\n";
    usage(2);
  }
  return hops;
}

}  // namespace

int main(int argc, char** argv) {
  workload::PaperScenario scenario;
  std::string csv_path;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::cerr << flag << " needs a value\n";
        usage(2);
      }
      return args[++i];
    };
    try {
      if (flag == "--help" || flag == "-h") {
        usage(0);
      } else if (flag == "--scheme") {
        scenario.scheme = workload::scheme_from_string(value());
      } else if (flag == "--interarrival") {
        scenario.interarrival = cli::parse_double(flag, value());
      } else if (flag == "--packets") {
        scenario.packets_per_source =
            cli::parse_uint<std::uint32_t>(flag, value());
      } else if (flag == "--mean-delay") {
        scenario.mean_delay = cli::parse_double(flag, value());
      } else if (flag == "--buffer") {
        scenario.buffer_slots = cli::parse_uint<std::size_t>(flag, value());
      } else if (flag == "--victim") {
        scenario.victim = parse_victim(value());
      } else if (flag == "--hops") {
        scenario.hop_counts = parse_hops(value());
      } else if (flag == "--shared-tail") {
        scenario.shared_tail = cli::parse_uint<std::uint16_t>(flag, value());
      } else if (flag == "--sink-weighting") {
        scenario.sink_weighting = cli::parse_double(flag, value());
      } else if (flag == "--source") {
        scenario.source = workload::source_kind_from_string(value());
      } else if (flag == "--jitter") {
        scenario.hop_jitter = cli::parse_double(flag, value());
      } else if (flag == "--tx-delay") {
        scenario.hop_tx_delay = cli::parse_double(flag, value());
      } else if (flag == "--seed") {
        scenario.seed = cli::parse_uint<std::uint64_t>(flag, value());
      } else if (flag == "--csv") {
        csv_path = value();
      } else {
        std::cerr << "unknown flag: " << flag << "\n";
        usage(2);
      }
    } catch (const cli::UsageError&) {
      std::cerr << "bad value for " << flag << "\n";
      usage(2);
    } catch (const std::invalid_argument& error) {  // an unknown name
      std::cerr << error.what() << "\n";
      usage(2);
    }
  }

  try {
    const workload::ScenarioResult result = run_paper_scenario(scenario);

    std::cout << "scheme: " << to_string(scenario.scheme)
              << "   source: " << to_string(scenario.source)
              << "   1/lambda: " << scenario.interarrival
              << "   1/mu: " << scenario.mean_delay
              << "   k: " << scenario.buffer_slots << "\n\n";

    metrics::Table table({"flow", "hops", "delivered", "MSE baseline-adv",
                          "MSE adaptive-adv", "MSE path-aware-adv",
                          "mean latency", "max latency"});
    for (std::size_t i = 0; i < result.flows.size(); ++i) {
      const workload::FlowResult& flow = result.flows[i];
      // Appended rather than "S" + std::to_string(...): GCC 12 at -O3 flags
      // the inlined operator+ with a -Werror=restrict false positive.
      std::string label = "S";
      label += std::to_string(i + 1);
      table.add_row({label, std::to_string(flow.hops),
                     std::to_string(flow.delivered),
                     metrics::format_number(flow.mse_baseline, 1),
                     metrics::format_number(flow.mse_adaptive, 1),
                     metrics::format_number(flow.mse_path_aware, 1),
                     metrics::format_number(flow.mean_latency, 1),
                     metrics::format_number(flow.max_latency, 1)});
    }
    table.print(std::cout);
    std::cout << "\noriginated " << result.originated << ", delivered "
              << result.delivered << ", preemptions " << result.preemptions
              << ", drops " << result.drops << ", sim end t = "
              << metrics::format_number(result.sim_end_time, 1) << "\n";
    if (!csv_path.empty()) {
      table.save_csv(csv_path);
      std::cout << "per-flow CSV written to " << csv_path << "\n";
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
