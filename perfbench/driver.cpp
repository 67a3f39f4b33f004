// tempriv benchmark driver: runs one workload (or all of them, one after
// the other, in this one process) for a stated number of seconds, checks
// its outputs, and prints every metric by name with its unit. The last
// line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics, or with --trace 1 the per-layer ones.
//
// Usage: perfbench_driver --workload NAME|all --seed N --seconds S
//                         --trace 0|1 --golden-dir DIR
//                         [--trace-out DIR] [--revision TEXT]
// README.md describes the workloads and what each metric should move.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};

constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.run_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"core.preemptions_per_packet", "1/packet"},
    {"core.drops_per_packet", "1/packet"},
    {"workload.job_ms.nodelay", "ms"},
    {"workload.job_ms.unlimited", "ms"},
    {"workload.job_ms.rcad", "ms"},
    {"workload.job_ms.droptail", "ms"},
    {"net.topology_build_s", "s"},
    {"net.csr_build_s", "s"},
    {"net.routing_build_s", "s"},
    {"net.network_build_s", "s"},
    {"net.bytes_per_node", "B"},
    {"net.transmissions", "count"},
    {"net.hops_per_packet", "1/packet"},
    {"crypto.seal_open_ns", "ns"},
    {"adversary.observe_s", "s"},
    {"adversary.score_s", "s"},
    {"campaign.sink_s", "s"},
    {"campaign.runner_overhead_s", "s"},
    {"campaign.merge_s", "s"},
    {"campaign.artifact_bytes", "B"},
    {"trace.overhead_s", "s"},
    {"trace.self_s.bench", "s"},
    {"trace.self_s.campaign", "s"},
    {"trace.self_s.workload", "s"},
    {"trace.self_s.sim", "s"},
    {"trace.self_s.net", "s"},
    {"trace.self_s.adversary", "s"},
};

// Every run makes at least this many iterations, however short --seconds.
constexpr int kMinIterations = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 10.0;
  bool trace = false;
  std::string golden_dir;
  std::string trace_out;
  std::string revision = "unknown";
};

[[noreturn]] void usage(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value after " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
      opt.seed_set = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0)) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--golden-dir") {
      opt.golden_dir = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--revision") {
      opt.revision = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.golden_dir.empty()) usage("--golden-dir is required");
  const auto& names = workload_names();
  if (opt.workload != "all" &&
      std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    usage("unknown workload " + opt.workload);
  }
  return opt;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  Outcome outcome;
  Layers end_to_end;
  Layers per_layer;
  int iterations = 0;
};

Report run_workload(const std::string& name, const Options& opt) {
  Report report;
  report.workload = name;
  Settings settings;
  settings.seed = opt.seed_set ? opt.seed : default_seed(name);
  report.seed = settings.seed;
  settings.golden_dir = opt.golden_dir;
  const auto workload = make_workload(name, settings);

  Tracer tracer;
  Tracer* const trace = opt.trace ? &tracer : nullptr;
  Layers prepared;
  workload->prepare(report.outcome, trace, prepared);

  // In a traced run every second iteration is traced; the untraced ones
  // give the baseline for the tracing overhead.
  std::vector<double> setup_s, wall_s, cpu_s, traced_wall_s;
  std::vector<Layers> traced;
  const std::int64_t start = now_ns();
  for (int i = 0;
       i < kMinIterations || static_cast<double>(now_ns() - start) * 1e-9 < opt.seconds;
       ++i) {
    Tracer* const t = (opt.trace && i % 2 == 1) ? &tracer : nullptr;
    const std::size_t mark = tracer.size();
    {
      Span span(t, "bench.setup");
      setup_s.push_back(workload->set_up(t));
    }
    const double cpu0 = process_cpu_s();
    const std::int64_t wall0 = now_ns();
    {
      Span span(t, "bench.timed");
      workload->run(t);
    }
    const double wall = static_cast<double>(now_ns() - wall0) * 1e-9;
    const double cpu = process_cpu_s() - cpu0;
    std::fprintf(stderr,
                 "%s iteration %d%s: setup_s %.6f wall_s %.6f cpu_s %.6f "
                 "peak_rss_mb %.1f\n",
                 name.c_str(), i, t ? " (traced)" : "", setup_s.back(), wall, cpu,
                 peak_rss_mb());
    Layers layers = prepared;
    workload->finish(report.outcome, t ? &layers : nullptr);
    // Hand the iteration's freed memory back to the kernel, so that every
    // iteration faults in fresh pages as a new process would, instead of
    // reusing the previous iteration's resident heap.
    malloc_trim(0);
    if (t) {
      traced_wall_s.push_back(wall);
      for (const auto& [layer, self] : tracer.self_seconds(mark)) {
        layers["trace.self_s." + layer] = self;
      }
      layers["crypto.seal_open_ns"] =
          seal_open_ns(workload->originated(), report.outcome);
      traced.push_back(std::move(layers));
    } else {
      wall_s.push_back(wall);
      cpu_s.push_back(cpu);
    }
    ++report.iterations;
  }

  report.end_to_end["wall_s"] = median(wall_s);
  report.end_to_end["cpu_s"] = median(cpu_s);
  report.end_to_end["setup_s"] = median(setup_s);
  report.end_to_end["peak_rss_mb"] = peak_rss_mb();
  if (opt.trace) {
    for (const MetricDef& def : kPerLayer) {
      std::vector<double> samples;
      for (const Layers& layers : traced) {
        const auto found = layers.find(def.name);
        samples.push_back(found == layers.end() ? 0.0 : found->second);
      }
      report.per_layer[def.name] = median(samples);
    }
    report.per_layer["trace.overhead_s"] = median(traced_wall_s) - median(wall_s);
    if (!opt.trace_out.empty()) {
      const std::string path = opt.trace_out + "/" + name + "-seed" +
                               std::to_string(settings.seed) + ".trace.jsonl";
      std::ofstream out(path);
      tracer.write_jsonl(out);
      report.outcome.check(static_cast<bool>(out), "cannot write " + path);
    }
  }
  return report;
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// The build this binary comes from, recorded with every result.
std::string context_json(const Options& opt) {
  std::string json = "{\"revision\":\"" + json_escape(opt.revision) + "\"";
  json += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  json += ",\"build_type\":\"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
  json += ",\"compiler\":\"" + json_escape(PERFBENCH_COMPILER) + "\"";
  json += std::string(",\"telemetry\":") + (PERFBENCH_TELEMETRY ? "true" : "false");
  json += ",\"sanitize\":\"" + json_escape(PERFBENCH_SANITIZE) + "\"";
  json += std::string(",\"scalar_crypto\":") + (PERFBENCH_SCALAR_CRYPTO ? "true" : "false");
  json += std::string(",\"native_crypto\":") + (PERFBENCH_NATIVE_CRYPTO ? "true" : "false");
  json += ",\"campaign_workers\":1}";
  return json;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  std::printf("context %s\n", context_json(opt).c_str());
  // Probes and sanitizers change the program being measured.
  if (PERFBENCH_TELEMETRY || std::strlen(PERFBENCH_SANITIZE) != 0) {
    std::fprintf(stderr,
                 "perfbench_driver: refusing to measure a telemetry or sanitizer "
                 "build\n");
    return 3;
  }

  const std::vector<std::string> workloads =
      opt.workload == "all" ? workload_names() : std::vector<std::string>{opt.workload};
  std::vector<Report> reports;
  try {
    for (const std::string& name : workloads) {
      reports.push_back(run_workload(name, opt));
      const Report& r = reports.back();
      const double failed_frac =
          static_cast<double>(r.outcome.failed) /
          static_cast<double>(std::max<std::uint64_t>(1, r.outcome.attempted));
      std::printf("workload %s seed %llu iterations %d attempted %llu failed %llu\n",
                  name.c_str(), static_cast<unsigned long long>(r.seed), r.iterations, static_cast<unsigned long long>(r.outcome.attempted),
                  static_cast<unsigned long long>(r.outcome.failed));
      for (const std::string& error : r.outcome.errors) {
        std::printf("  FAILED: %s\n", error.c_str());
      }
      for (const MetricDef& def : kEndToEnd) {
        std::printf("  %-30s %s %s\n", def.name, number(r.end_to_end.at(def.name)).c_str(),
                    def.unit);
      }
      std::printf("  %-30s %s %s\n", "failed_frac", number(failed_frac).c_str(), "1");
      if (opt.trace) {
        for (const MetricDef& def : kPerLayer) {
          std::printf("  %-30s %s %s\n", def.name,
                      number(r.per_layer.at(def.name)).c_str(), def.unit);
        }
      }
      std::fflush(stdout);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string metrics;
  for (const Report& r : reports) {
    attempted += r.outcome.attempted;
    failed += r.outcome.failed;
    const std::string prefix = workloads.size() > 1 ? r.workload + "." : "";
    const Layers& values = opt.trace ? r.per_layer : r.end_to_end;
    const std::span<const MetricDef> defs =
        opt.trace ? std::span<const MetricDef>(kPerLayer) : std::span<const MetricDef>(kEndToEnd);
    for (const MetricDef& def : defs) {
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + prefix + def.name + "\": {\"value\": " +
                 number(values.at(def.name)) + ", \"unit\": \"" + def.unit + "\"}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}
