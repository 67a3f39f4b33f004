#include "campaign/sweeps.h"

#include <algorithm>
#include <stdexcept>

namespace tempriv::campaign {

namespace {

// The three §5.3 schemes in every figure's column order.
constexpr workload::Scheme kFigureSchemes[] = {
    workload::Scheme::kNoDelay, workload::Scheme::kUnlimitedDelay,
    workload::Scheme::kRcad};

// The paper's sweep axis, 1/λ ∈ [2, 20] step 2, accumulated by repeated
// addition (the values are exact in binary, so the golden CSVs' x-column
// matches byte for byte).
std::vector<double> paper_interarrivals() {
  std::vector<double> out;
  for (double interarrival = 2.0; interarrival <= 20.0; interarrival += 2.0) {
    out.push_back(interarrival);
  }
  return out;
}

// One scenario point per (interarrival, scheme), interarrival-major — the
// golden CSVs' row order.
std::vector<workload::PaperScenario> three_scheme_grid() {
  std::vector<workload::PaperScenario> points;
  for (const double interarrival : paper_interarrivals()) {
    for (const workload::Scheme scheme : kFigureSchemes) {
      workload::PaperScenario scenario;
      scenario.interarrival = interarrival;
      scenario.scheme = scheme;
      points.push_back(scenario);
    }
  }
  return points;
}

// RCAD at every paper interarrival: Figure 3's points, also the adversary
// ladder's.
std::vector<workload::PaperScenario> rcad_paper_points() {
  std::vector<workload::PaperScenario> points;
  for (const double interarrival : paper_interarrivals()) {
    workload::PaperScenario scenario;
    scenario.interarrival = interarrival;
    scenario.scheme = workload::Scheme::kRcad;
    points.push_back(scenario);
  }
  return points;
}

}  // namespace

Sweep fig2a_sweep() {
  Sweep sweep;
  sweep.name = "fig2a";
  sweep.tag = "fig2a_mse";
  sweep.points = three_scheme_grid();
  sweep.table = [](const std::vector<workload::ScenarioResult>& results) {
    metrics::Table table({"1/lambda", "NoDelay", "Delay&UnlimitedBuffers",
                          "Delay&LimitedBuffers(RCAD)"});
    const std::vector<double> xs = paper_interarrivals();
    for (std::size_t i = 0; i < results.size() / 3; ++i) {
      std::vector<double> row{xs[i]};
      for (std::size_t s = 0; s < 3; ++s) {
        row.push_back(results.at(i * 3 + s).flows.front().mse_baseline);
      }
      table.add_numeric_row(row, 1);
    }
    return table;
  };
  return sweep;
}

Sweep fig2b_sweep() {
  Sweep sweep;
  sweep.name = "fig2b";
  sweep.tag = "fig2b_latency";
  sweep.points = three_scheme_grid();
  sweep.table = [](const std::vector<workload::ScenarioResult>& results) {
    metrics::Table table({"1/lambda", "NoDelay", "Delay&UnlimitedBuffers",
                          "Delay&LimitedBuffers(RCAD)",
                          "RCAD reduction vs unlimited"});
    const std::vector<double> xs = paper_interarrivals();
    for (std::size_t i = 0; i < results.size() / 3; ++i) {
      std::vector<double> row{xs[i]};
      for (std::size_t s = 0; s < 3; ++s) {
        row.push_back(results.at(i * 3 + s).flows.front().mean_latency);
      }
      row.push_back(row[2] / row[3]);  // unlimited / RCAD latency ratio
      table.add_numeric_row(row, 2);
    }
    return table;
  };
  return sweep;
}

Sweep fig3_sweep() {
  Sweep sweep;
  sweep.name = "fig3";
  sweep.tag = "fig3_adaptive_adversary";
  sweep.points = rcad_paper_points();
  sweep.table = [](const std::vector<workload::ScenarioResult>& results) {
    metrics::Table table(
        {"1/lambda", "BaselineAdversary", "AdaptiveAdversary", "reduction"});
    const std::vector<double> xs = paper_interarrivals();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& s1 = results.at(i).flows.front();
      table.add_numeric_row({xs[i], s1.mse_baseline, s1.mse_adaptive,
                             s1.mse_adaptive > 0.0
                                 ? s1.mse_baseline / s1.mse_adaptive
                                 : 1.0},
                            1);
    }
    return table;
  };
  return sweep;
}

Sweep buffer_size_sweep() {
  Sweep sweep;
  sweep.name = "buffer";
  sweep.tag = "ablation_buffer_size";
  const std::size_t slot_grid[] = {2, 5, 10, 20, 40, 80};
  for (const std::size_t slots : slot_grid) {
    workload::PaperScenario scenario;
    scenario.scheme = workload::Scheme::kRcad;
    scenario.interarrival = 2.0;
    scenario.buffer_slots = slots;
    sweep.points.push_back(scenario);
  }
  sweep.table = [](const std::vector<workload::ScenarioResult>& results) {
    metrics::Table table({"buffer slots k", "S1 MSE (baseline adv)",
                          "S1 MSE (adaptive adv)", "S1 mean latency",
                          "preemptions per packet"});
    const std::size_t slots[] = {2, 5, 10, 20, 40, 80};
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& result = results[i];
      const auto& s1 = result.flows.front();
      table.add_numeric_row(
          {static_cast<double>(slots[i]), s1.mse_baseline, s1.mse_adaptive,
           s1.mean_latency,
           static_cast<double>(result.preemptions) /
               static_cast<double>(result.originated)},
          1);
    }
    return table;
  };
  return sweep;
}

Sweep victim_policy_sweep() {
  Sweep sweep;
  sweep.name = "victim";
  sweep.tag = "ablation_victim_policy";
  for (const core::VictimPolicy policy :
       {core::VictimPolicy::kShortestRemaining,
        core::VictimPolicy::kLongestRemaining, core::VictimPolicy::kRandom,
        core::VictimPolicy::kOldest}) {
    for (const double interarrival : {2.0, 6.0}) {
      workload::PaperScenario scenario;
      scenario.scheme = workload::Scheme::kRcad;
      scenario.victim = policy;
      scenario.interarrival = interarrival;
      sweep.points.push_back(scenario);
    }
  }
  sweep.table = [points = sweep.points](
                    const std::vector<workload::ScenarioResult>& results) {
    metrics::Table table({"victim policy", "1/lambda", "S1 MSE (baseline adv)",
                          "S1 MSE (adaptive adv)", "S1 mean latency",
                          "preemptions"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& s1 = results[i].flows.front();
      table.add_row({core::to_string(points[i].victim),
                     metrics::format_number(points[i].interarrival, 0),
                     metrics::format_number(s1.mse_baseline, 1),
                     metrics::format_number(s1.mse_adaptive, 1),
                     metrics::format_number(s1.mean_latency, 1),
                     std::to_string(results[i].preemptions)});
    }
    return table;
  };
  return sweep;
}

Sweep delay_decomposition_sweep() {
  Sweep sweep;
  sweep.name = "decomposition";
  sweep.tag = "ablation_delay_decomposition";
  for (const double weighting : {0.0, 0.5, 1.0}) {
    for (const double interarrival : {2.0, 6.0}) {
      workload::PaperScenario scenario;
      scenario.scheme = workload::Scheme::kRcad;
      scenario.sink_weighting = weighting;
      scenario.interarrival = interarrival;
      sweep.points.push_back(scenario);
    }
  }
  sweep.table = [points = sweep.points](
                    const std::vector<workload::ScenarioResult>& results) {
    metrics::Table table({"sink weighting", "1/lambda",
                          "S1 MSE (baseline adv)", "S1 mean latency",
                          "preemptions", "drops"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& result = results[i];
      const auto& s1 = result.flows.front();
      table.add_numeric_row({points[i].sink_weighting, points[i].interarrival,
                             s1.mse_baseline, s1.mean_latency,
                             static_cast<double>(result.preemptions),
                             static_cast<double>(result.drops)},
                            1);
    }
    return table;
  };
  return sweep;
}

Sweep topology_sharing_sweep() {
  Sweep sweep;
  sweep.name = "trunk";
  sweep.tag = "ablation_topology_sharing";
  // Each tail runs twice, RCAD then unlimited buffers; a table row pairs
  // the two.
  for (const std::uint16_t tail : {0, 2, 3, 5, 8}) {
    workload::PaperScenario scenario;
    scenario.scheme = workload::Scheme::kRcad;
    scenario.interarrival = 2.0;
    scenario.shared_tail = tail;
    sweep.points.push_back(scenario);
    scenario.scheme = workload::Scheme::kUnlimitedDelay;
    sweep.points.push_back(scenario);
  }
  sweep.table = [points = sweep.points](
                    const std::vector<workload::ScenarioResult>& results) {
    metrics::Table table({"shared trunk hops", "S1 MSE (baseline adv)",
                          "S1 RCAD latency", "S1 unlimited latency",
                          "latency reduction", "preemptions"});
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
      const auto& rcad = results[i];
      const auto& s1 = rcad.flows.front();
      const double unlimited_latency = results[i + 1].flows.front().mean_latency;
      table.add_numeric_row(
          {static_cast<double>(points[i].shared_tail), s1.mse_baseline,
           s1.mean_latency, unlimited_latency,
           unlimited_latency / s1.mean_latency,
           static_cast<double>(rcad.preemptions)},
          1);
    }
    return table;
  };
  return sweep;
}

Sweep adversary_models_sweep() {
  Sweep sweep;
  sweep.name = "adversaries";
  sweep.tag = "ablation_adversary_models";
  sweep.points = rcad_paper_points();
  sweep.table = [](const std::vector<workload::ScenarioResult>& results) {
    metrics::Table table({"1/lambda", "baseline MSE", "adaptive MSE",
                          "path-aware MSE", "S1 latency variance floor"});
    const std::vector<double> xs = paper_interarrivals();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& s1 = results[i].flows.front();
      // No estimator beats the latency's own variance; the best of the
      // three adversaries stands in for that floor.
      table.add_numeric_row({xs[i], s1.mse_baseline, s1.mse_adaptive,
                             s1.mse_path_aware,
                             std::min({s1.mse_baseline, s1.mse_adaptive,
                                       s1.mse_path_aware})},
                            1);
    }
    return table;
  };
  return sweep;
}

Sweep traffic_pattern_sweep() {
  Sweep sweep;
  sweep.name = "traffic";
  sweep.tag = "ablation_traffic_pattern";
  for (const workload::SourceKind kind :
       {workload::SourceKind::kPeriodic, workload::SourceKind::kPoisson,
        workload::SourceKind::kBursty}) {
    workload::PaperScenario scenario;
    scenario.scheme = workload::Scheme::kRcad;
    scenario.interarrival = 2.0;
    scenario.hop_counts = {15};
    scenario.packets_per_source = 4000;
    scenario.source = kind;
    sweep.points.push_back(scenario);
  }
  sweep.table = [](const std::vector<workload::ScenarioResult>& results) {
    metrics::Table table({"creation process (avg rate 0.5)", "adversary MSE",
                          "mean latency", "max latency", "preemptions"});
    const char* const labels[] = {"periodic (paper sim)",
                                  "Poisson (paper analysis)", "ON/OFF bursty"};
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& s1 = results[i].flows.front();
      table.add_row({labels[i], metrics::format_number(s1.mse_baseline, 1),
                     metrics::format_number(s1.mean_latency, 1),
                     metrics::format_number(s1.max_latency, 1),
                     std::to_string(results[i].preemptions)});
    }
    return table;
  };
  return sweep;
}

namespace {

/// The generic grid table over an explicit point list — shared by
/// grid_sweep (points from a GridSpec cross product) and sweep_for_merge
/// (points recovered from shard JSONL records).
std::function<metrics::Table(const std::vector<workload::ScenarioResult>&)>
grid_table(std::vector<workload::PaperScenario> points) {
  return [points = std::move(points)](
             const std::vector<workload::ScenarioResult>& results) {
    metrics::Table table({"1/lambda", "k", "scheme", "S1 MSE (baseline)",
                          "S1 MSE (adaptive)", "S1 mean latency",
                          "preempt/pkt", "drops/pkt"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& result = results[i];
      const auto& s1 = result.flows.front();
      const double originated =
          result.originated > 0 ? static_cast<double>(result.originated) : 1.0;
      table.add_row(
          {metrics::format_number(points[i].interarrival, 1),
           std::to_string(points[i].buffer_slots),
           workload::to_string(points[i].scheme),
           metrics::format_number(s1.mse_baseline, 1),
           metrics::format_number(s1.mse_adaptive, 1),
           metrics::format_number(s1.mean_latency, 2),
           metrics::format_number(
               static_cast<double>(result.preemptions) / originated, 3),
           metrics::format_number(static_cast<double>(result.drops) / originated,
                                  3)});
    }
    return table;
  };
}

}  // namespace

Sweep grid_sweep(const GridSpec& spec) {
  if (spec.interarrivals.empty() || spec.buffer_slots.empty() ||
      spec.schemes.empty()) {
    throw std::invalid_argument("grid_sweep: empty axis");
  }
  Sweep sweep;
  sweep.name = "grid";
  sweep.tag = "campaign_grid";
  for (const double interarrival : spec.interarrivals) {
    for (const std::size_t slots : spec.buffer_slots) {
      for (const workload::Scheme scheme : spec.schemes) {
        workload::PaperScenario scenario = spec.base;
        scenario.interarrival = interarrival;
        scenario.buffer_slots = slots;
        scenario.scheme = scheme;
        sweep.points.push_back(scenario);
      }
    }
  }
  sweep.table = grid_table(sweep.points);
  return sweep;
}

const std::vector<std::string>& named_sweeps() {
  static const std::vector<std::string> names = {"fig2a", "fig2b", "fig3",
                                                 "buffer"};
  return names;
}

Sweep make_named_sweep(const std::string& name) {
  if (name == "fig2a" || name == "fig2a_mse") return fig2a_sweep();
  if (name == "fig2b" || name == "fig2b_latency") return fig2b_sweep();
  if (name == "fig3" || name == "fig3_adaptive_adversary") return fig3_sweep();
  if (name == "buffer" || name == "ablation_buffer_size") {
    return buffer_size_sweep();
  }
  if (name == "victim" || name == "ablation_victim_policy") {
    return victim_policy_sweep();
  }
  if (name == "decomposition" || name == "ablation_delay_decomposition") {
    return delay_decomposition_sweep();
  }
  if (name == "trunk" || name == "ablation_topology_sharing") {
    return topology_sharing_sweep();
  }
  if (name == "adversaries" || name == "ablation_adversary_models") {
    return adversary_models_sweep();
  }
  if (name == "traffic" || name == "ablation_traffic_pattern") {
    return traffic_pattern_sweep();
  }
  throw std::invalid_argument("unknown sweep: " + name);
}

SweepRun run_sweep(const Sweep& sweep, const RunnerOptions& options,
                   std::uint32_t replications,
                   const std::vector<ResultSink*>& sinks) {
  CampaignRunner runner(options);
  const std::vector<JobSpec> jobs =
      CampaignRunner::expand(sweep.points, replications);
  std::vector<JobResult> results = runner.run(jobs, sinks);
  metrics::Table table = sweep.table(point_results(results));
  return SweepRun{std::move(table), std::move(results)};
}

void run_sweep_shard(const Sweep& sweep, const RunnerOptions& options,
                     std::uint32_t replications, const ShardSpec& shard,
                     std::ostream& jsonl_os, std::ostream& stats_os,
                     const std::vector<ResultSink*>& sinks) {
  const CampaignManifest manifest =
      make_manifest(sweep.name, sweep.tag, replications, sweep.points);
  const std::vector<JobSpec> jobs =
      CampaignRunner::expand(sweep.points, replications, shard);

  ShardHeader header;
  header.manifest = manifest;
  header.shard = shard;
  header.jobs_owned = jobs.size();
  jsonl_os << shard_header_json(header) << "\n";

  JsonlSink jsonl(jsonl_os);
  MergedStatsSink stats(sweep.points.size());
  std::vector<ResultSink*> all_sinks = {&jsonl, &stats};
  all_sinks.insert(all_sinks.end(), sinks.begin(), sinks.end());
  CampaignRunner runner(options);
  runner.run(jobs, all_sinks);

  write_campaign_stats_json(stats_os, manifest, &shard, stats, jsonl.digest());
}

Sweep sweep_for_merge(const std::string& name,
                      const std::vector<workload::PaperScenario>& points) {
  Sweep sweep;
  if (name == "grid") {
    sweep.name = "grid";
    sweep.tag = "campaign_grid";
    sweep.points = points;
    sweep.table = grid_table(points);
  } else {
    sweep = make_named_sweep(name);
  }
  if (sweep.points.size() != points.size()) {
    throw std::runtime_error(
        "sweep_for_merge: sweep '" + name + "' has " +
        std::to_string(sweep.points.size()) + " points, artifacts describe " +
        std::to_string(points.size()));
  }
  return sweep;
}

}  // namespace tempriv::campaign
