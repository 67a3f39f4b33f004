#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "campaign/merge.h"
#include "campaign/sinks.h"
#include "campaign/sweeps.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "net/network.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/random.h"
#include "sim/seed.h"
#include "sim/simulator.h"
#include "workload/source.h"

namespace perfbench {

namespace campaign = tempriv::campaign;
namespace workload = tempriv::workload;
namespace net = tempriv::net;

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

void Outcome::jobs(std::uint64_t attempted_jobs, std::uint64_t failed_jobs,
                   const std::string& what) {
  attempted += attempted_jobs;
  failed += failed_jobs;
  if (failed_jobs > 0 && errors.size() < 8) errors.push_back(what);
}

namespace {

const tempriv::crypto::Speck64_128::Key kKey{1, 2,  3,  4,  5,  6,  7,  8,
                                             9, 10, 11, 12, 13, 14, 15, 16};

// FNV-1a 64 of the artifact bytes, as 16 hex digits.
std::string digest(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream contents;
  contents << file.rdbuf();
  return contents.str();
}

const char* scheme_key(workload::Scheme scheme) {
  switch (scheme) {
    case workload::Scheme::kNoDelay:
      return "nodelay";
    case workload::Scheme::kUnlimitedDelay:
      return "unlimited";
    case workload::Scheme::kDropTail:
      return "droptail";
    case workload::Scheme::kRcad:
      return "rcad";
  }
  return "unknown";
}

// ResultSink shim: times every call into the wrapped sink.
class TimedSink final : public campaign::ResultSink {
 public:
  TimedSink(campaign::ResultSink& inner, Tracer& tracer, std::string name)
      : inner_(inner), timer_(tracer, std::move(name)) {}
  void consume(const campaign::JobResult& job) override {
    timer_.time([&] { inner_.consume(job); });
  }
  void close() override {
    timer_.time([&] { inner_.close(); });
  }
  double seconds() const noexcept { return timer_.seconds(); }

 private:
  campaign::ResultSink& inner_;
  AggregateTimer timer_;
};

// SinkObserver shim: times every delivery the wrapped observer handles.
class TimedObserver final : public net::SinkObserver {
 public:
  TimedObserver(net::SinkObserver& inner, Tracer& tracer, std::string name)
      : inner_(inner), timer_(tracer, std::move(name)) {}
  void on_delivery(const net::Packet& packet, tempriv::sim::Time arrival) override {
    timer_.time([&] { inner_.on_delivery(packet, arrival); });
  }
  double seconds() const noexcept { return timer_.seconds(); }

 private:
  net::SinkObserver& inner_;
  AggregateTimer timer_;
};

// Counts the jobs the runner released, so a sweep that throws still tells
// how many of its jobs produced a result.
class CountingSink final : public campaign::ResultSink {
 public:
  void consume(const campaign::JobResult&) override { ++count; }
  std::size_t count = 0;
};

// One sweep through campaign::run_sweep with the CLI's JSONL and
// merged-stats sinks, on one worker, with its three artifacts in memory.
struct SweepOutput {
  std::string jsonl;
  std::string stats;
  std::string csv;
  std::vector<campaign::JobResult> jobs;
  std::size_t expected_jobs = 0;
  std::size_t released_jobs = 0;
  std::string error;  ///< what the runner threw, if it did
  double run_s = 0.0;
  double sink_s = 0.0;

  std::size_t bytes() const { return jsonl.size() + stats.size() + csv.size(); }
};

SweepOutput run_campaign_sweep(const campaign::Sweep& sweep, Tracer* tracer) {
  SweepOutput out;
  out.expected_jobs = sweep.points.size();
  std::ostringstream jsonl_os;
  campaign::JsonlSink jsonl(jsonl_os);
  campaign::MergedStatsSink stats(sweep.points.size());
  CountingSink counter;
  std::optional<TimedSink> timed_jsonl;
  std::optional<TimedSink> timed_stats;
  std::vector<campaign::ResultSink*> sinks{&jsonl, &stats, &counter};
  if (tracer) {
    timed_jsonl.emplace(jsonl, *tracer, "campaign.sink.jsonl");
    timed_stats.emplace(stats, *tracer, "campaign.sink.stats");
    sinks = {&*timed_jsonl, &*timed_stats, &counter};
  }
  std::optional<campaign::SweepRun> run;
  {
    Span span(tracer, "campaign.run_sweep");
    const std::int64_t start = now_ns();
    try {
      run.emplace(campaign::run_sweep(
          sweep, campaign::RunnerOptions{.threads = 1, .progress = nullptr}, 1,
          sinks));
    } catch (const std::exception& e) {
      out.error = sweep.name + ": " + e.what();
    }
    out.run_s = static_cast<double>(now_ns() - start) * 1e-9;
    if (tracer && run) {
      double job_s = 0.0;
      for (const campaign::JobResult& job : run->jobs) job_s += job.wall_seconds;
      tracer->add(tracer->aggregate("workload.jobs"), run->jobs.size(),
                  static_cast<std::int64_t>(job_s * 1e9));
    }
  }
  out.released_jobs = counter.count;
  if (timed_jsonl) out.sink_s = timed_jsonl->seconds() + timed_stats->seconds();
  if (!run) return out;
  Span span(tracer, "campaign.write_artifacts");
  out.jsonl = jsonl_os.str();
  std::ostringstream stats_os;
  campaign::write_campaign_stats_json(
      stats_os, campaign::make_manifest(sweep.name, sweep.tag, 1, sweep.points),
      nullptr, stats);
  out.stats = stats_os.str();
  std::ostringstream csv_os;
  run->table.write_csv(csv_os);
  out.csv = csv_os.str();
  out.jobs = std::move(run->jobs);
  return out;
}

// Job accounting and conservation: every job a sweep attempted either
// produced a result or counts as failed, and at the end of every job each
// originated packet was delivered or dropped.
void check_sweep(const SweepOutput& out, Outcome& outcome) {
  outcome.jobs(out.expected_jobs, out.expected_jobs - out.released_jobs,
               out.error.empty() ? "jobs missing from the result" : out.error);
  std::size_t leaks = 0;
  for (const campaign::JobResult& job : out.jobs) {
    const workload::ScenarioResult& r = job.result;
    if (r.originated != r.delivered + r.drops) ++leaks;
  }
  outcome.check(leaks == 0, "conservation violated in " + std::to_string(leaks) +
                                " jobs");
}

// The campaign-side per-layer values of a set of sweeps.
void campaign_layers(const std::vector<const SweepOutput*>& outputs,
                     Layers& layers) {
  double events = 0, originated = 0, preemptions = 0, drops = 0,
         transmissions = 0, job_s = 0, run_s = 0, sink_s = 0, bytes = 0;
  std::map<std::string, std::vector<double>> job_ms;
  for (const SweepOutput* out : outputs) {
    run_s += out->run_s;
    sink_s += out->sink_s;
    bytes += static_cast<double>(out->bytes());
    for (const campaign::JobResult& job : out->jobs) {
      const workload::ScenarioResult& r = job.result;
      events += static_cast<double>(r.events_executed);
      originated += static_cast<double>(r.originated);
      preemptions += static_cast<double>(r.preemptions);
      drops += static_cast<double>(r.drops);
      transmissions += static_cast<double>(r.transmissions);
      job_s += job.wall_seconds;
      job_ms[scheme_key(job.spec.scenario.scheme)].push_back(job.wall_seconds * 1e3);
    }
  }
  layers["sim.events"] = events;
  layers["sim.ns_per_event"] = events > 0 ? job_s / events * 1e9 : 0.0;
  layers["core.preemptions_per_packet"] = originated > 0 ? preemptions / originated : 0.0;
  layers["core.drops_per_packet"] = originated > 0 ? drops / originated : 0.0;
  for (const auto& [scheme, samples] : job_ms) {
    layers["workload.job_ms." + scheme] = median(samples);
  }
  layers["net.transmissions"] = transmissions;
  layers["net.hops_per_packet"] = originated > 0 ? transmissions / originated : 0.0;
  layers["campaign.sink_s"] = sink_s;
  layers["campaign.runner_overhead_s"] = run_s - job_s - sink_s;
  layers["campaign.artifact_bytes"] = bytes;
}

std::uint64_t total_originated(const std::vector<const SweepOutput*>& outputs) {
  std::uint64_t total = 0;
  for (const SweepOutput* out : outputs) {
    for (const campaign::JobResult& job : out->jobs) total += job.result.originated;
  }
  return total;
}

// A campaign set-up (sweep and job expansion) takes microseconds, so one
// setup_s sample is the median of this many timed repetitions: robust to
// the odd interrupt that would dominate a single microsecond timing.
constexpr int kCampaignSetupReps = 201;

template <typename F>
double median_rep_seconds(F&& set_up_once) {
  std::vector<double> samples;
  samples.reserve(kCampaignSetupReps);
  for (int rep = 0; rep < kCampaignSetupReps; ++rep) {
    const std::int64_t start = now_ns();
    set_up_once();
    samples.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  return median(std::move(samples));
}

// ---------------------------------------------------------------------------
// paper_campaign: the four named sweeps of the paper's figures.

class PaperCampaign final : public Workload {
 public:
  explicit PaperCampaign(Settings settings) : settings_(std::move(settings)) {}

  void prepare(Outcome& outcome, Tracer*, Layers&) override {
    // The golden tables exist at the paper seed only, so they are checked
    // on an untimed run there whatever seed the timed iterations use.
    for (const std::string& name : campaign::named_sweeps()) {
      const campaign::Sweep sweep = campaign::make_named_sweep(name);
      const SweepOutput out = run_campaign_sweep(sweep, nullptr);
      check_sweep(out, outcome);
      check_golden(sweep.tag, out.csv, outcome);
    }
  }

  double set_up(Tracer* tracer) override {
    Span span(tracer, "campaign.expand");
    traced_ = tracer != nullptr;
    return median_rep_seconds([&] {
      sweeps_.clear();
      jobs_ = 0;
      for (const std::string& name : campaign::named_sweeps()) {
        campaign::Sweep sweep = campaign::make_named_sweep(name);
        for (workload::PaperScenario& point : sweep.points) {
          point.seed = settings_.seed;
          point.trace = traced_;
        }
        jobs_ += campaign::CampaignRunner::expand(sweep.points, 1).size();
        sweeps_.push_back(std::move(sweep));
      }
    });
  }

  void run(Tracer* tracer) override {
    outputs_.clear();
    for (const campaign::Sweep& sweep : sweeps_) {
      outputs_.push_back(run_campaign_sweep(sweep, tracer));
    }
  }

  void finish(Outcome& outcome, Layers* layers) override {
    std::string artifacts;
    std::vector<const SweepOutput*> outputs;
    std::size_t jobs = 0;
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
      const SweepOutput& out = outputs_[i];
      check_sweep(out, outcome);
      if (settings_.seed == kPaperSeed) check_golden(sweeps_[i].tag, out.csv, outcome);
      artifacts += out.jsonl + out.stats + out.csv;
      outputs.push_back(&out);
      jobs += out.expected_jobs;
    }
    outcome.check(jobs == jobs_, "job expansion disagrees with the sweeps");
    // Every iteration at one seed must write the same bytes.
    const auto [first, inserted] = digests_.emplace(traced_, digest(artifacts));
    if (!inserted) {
      outcome.check(first->second == digest(artifacts),
                    "artifacts differ between iterations");
    }
    originated_ = total_originated(outputs);
    if (layers) campaign_layers(outputs, *layers);
  }

  std::uint64_t originated() const override { return originated_; }

 private:
  void check_golden(const std::string& tag, const std::string& csv,
                    Outcome& outcome) const {
    const std::string path = settings_.golden_dir + "/" + tag + ".csv";
    const std::string golden = read_file(path);
    outcome.check(!golden.empty() && csv == golden,
                  tag + " table differs from " + path);
  }

  Settings settings_;
  std::vector<campaign::Sweep> sweeps_;
  std::size_t jobs_ = 0;
  bool traced_ = false;
  std::vector<SweepOutput> outputs_;
  std::map<bool, std::string> digests_;  // keyed by traced
  std::uint64_t originated_ = 0;
};

// ---------------------------------------------------------------------------
// field_1m: the bench/scale_rcad recipe at 10^6 nodes.

constexpr std::size_t kFieldNodes = 1'000'000;
constexpr std::size_t kFieldSinks = 64;
constexpr std::size_t kFieldSources = 4096;
constexpr std::uint32_t kFieldPackets = 20;
constexpr double kFieldInterval = 20.0;  // mean inter-creation time 1/λ
constexpr double kFieldRadius = 1.8;     // mean degree ~10 at unit density
constexpr double kFieldMeanDelay = 30.0;
constexpr std::size_t kFieldCapacity = 10;
// The field itself is one fixed deployment, as the paper's Fig. 1 topology
// is; the workload seed draws the traffic and the privacy delays. Sink
// placement moves the mean path length, and so the event count, by ~15%
// from one field to the next, which would drown any change under test.
constexpr std::uint64_t kFieldDeploymentSeed = 1;

// What one field_1m run produces; deterministic per seed.
struct FieldFingerprint {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t drops = 0;
  double adversary_mse = 0.0;

  friend bool operator==(const FieldFingerprint&, const FieldFingerprint&) = default;
};

// Recorded at the default seed; bench/scale_rcad --n 1000000 --sinks 64
// --sources 4096 --packets 20 --seed 1 prints the same counts.
constexpr FieldFingerprint kFieldFingerprintSeed1{7632303, 81920, 143657, 0,
                                                  44718.278796764644};

class Field1m final : public Workload {
 public:
  explicit Field1m(Settings settings) : settings_(std::move(settings)) {}

  void prepare(Outcome&, Tracer*, Layers&) override {}

  double set_up(Tracer* tracer) override {
    const std::int64_t start = now_ns();
    field_ = std::make_unique<Field>();
    Field& f = *field_;
    const std::uint64_t seed = settings_.seed;
    // Unit density: the expected degree is the same at every field size.
    const double side = std::sqrt(static_cast<double>(kFieldNodes));
    tempriv::sim::RandomStream topo_rng(kFieldDeploymentSeed);
    f.topology_s = timed(tracer, "net.topology_build", [&] {
      f.topology.emplace(net::Topology::random_geometric_multi_sink(
          kFieldNodes, side, kFieldRadius, kFieldSinks, topo_rng));
    });
    f.csr_s = timed(tracer, "net.csr_build", [&] { f.topology->edge_count(); });
    f.routing_s = timed(tracer, "net.routing_build",
                        [&] { f.routing.emplace(*f.topology); });
    f.network_s = timed(tracer, "net.network_build", [&] {
      f.network.emplace(f.simulator, *f.topology,
                        tempriv::core::DisciplineSpec::rcad_exponential(
                            kFieldMeanDelay, kFieldCapacity),
                        net::NetworkConfig{}, tempriv::sim::RandomStream(seed + 1));
    });
    net::Network& network = *f.network;

    f.recorder.emplace(f.codec);
    f.adversary.emplace(network.hop_tx_delay(), kFieldMeanDelay);
    if (tracer) {
      f.observers.emplace_back(*f.recorder, *tracer, "adversary.observe.recorder");
      f.observers.emplace_back(*f.adversary, *tracer, "adversary.observe.baseline");
      for (TimedObserver& shim : f.observers) network.add_sink_observer(&shim);
      network.add_transmit_probe(
          [count = &f.transmissions](net::NodeId, net::NodeId, const net::Packet&,
                                     tempriv::sim::Time) { ++*count; });
    } else {
      network.add_sink_observer(&*f.recorder);
      network.add_sink_observer(&*f.adversary);
    }

    // Sources sampled evenly across the id space, skipping sinks and nodes
    // outside the giant component; starts staggered over one interval.
    std::vector<net::NodeId> origins;
    const std::size_t stride = kFieldNodes / kFieldSources;
    for (std::size_t id = 0; id < kFieldNodes && origins.size() < kFieldSources;
         id += stride) {
      const auto node = static_cast<net::NodeId>(id);
      if (f.topology->is_sink(node) || !f.routing->reachable(node)) continue;
      origins.push_back(node);
    }
    tempriv::sim::RandomStream source_root(seed + 2);
    for (const net::NodeId origin : origins) {
      f.sources.push_back(std::make_unique<workload::PoissonSource>(
          network, f.codec, origin, source_root.split(origin),
          1.0 / kFieldInterval, kFieldPackets));
      f.sources.back()->start(source_root.uniform(0.0, kFieldInterval));
    }
    network.reserve(origins.size() + 64);
    f.simulator.reserve(4096);
    return static_cast<double>(now_ns() - start) * 1e-9;
  }

  void run(Tracer* tracer) override {
    Field& f = *field_;
    try {
      f.run_s = timed(tracer, "sim.run", [&] { f.simulator.run(); });
      f.score_s = timed(tracer, "adversary.score",
                        [&] { f.score = f.recorder->score_all(*f.adversary); });
    } catch (const std::exception& e) {
      f.error = e.what();
    }
  }

  void finish(Outcome& outcome, Layers* layers) override {
    const Field& f = *field_;
    const net::Network& network = *f.network;
    outcome.check(f.error.empty(), "field_1m run threw: " + f.error);
    const FieldFingerprint fingerprint{
        f.simulator.events_executed(), network.packets_delivered(),
        network.total_preemptions(), network.total_drops(), f.score.mse()};
    originated_ = network.packets_originated();
    outcome.check(originated_ == fingerprint.delivered + fingerprint.drops +
                                     network.total_buffered(),
                  "conservation: originated != delivered + drops + buffered");
    outcome.check(f.score.count() == fingerprint.delivered,
                  "not every delivered packet was scored");
    if (!first_) first_ = fingerprint;
    outcome.check(fingerprint == *first_, "field differs between iterations");
    if (settings_.seed == kDefaultSeed) {
      outcome.check(fingerprint == kFieldFingerprintSeed1,
                    "field differs from the recorded seed-1 fingerprint");
    }
    std::fprintf(stderr,
                 "field_1m seed %llu: events %llu delivered %llu preemptions "
                 "%llu drops %llu adversary_mse %.17g\n",
                 static_cast<unsigned long long>(settings_.seed),
                 static_cast<unsigned long long>(fingerprint.events),
                 static_cast<unsigned long long>(fingerprint.delivered),
                 static_cast<unsigned long long>(fingerprint.preemptions),
                 static_cast<unsigned long long>(fingerprint.drops),
                 fingerprint.adversary_mse);

    if (layers) {
      Layers& l = *layers;
      const double events = static_cast<double>(fingerprint.events);
      const double originated = static_cast<double>(originated_);
      l["sim.events"] = events;
      l["sim.run_s"] = f.run_s;
      l["sim.ns_per_event"] = events > 0 ? f.run_s / events * 1e9 : 0.0;
      l["core.preemptions_per_packet"] =
          static_cast<double>(fingerprint.preemptions) / originated;
      l["core.drops_per_packet"] = static_cast<double>(fingerprint.drops) / originated;
      l["net.topology_build_s"] = f.topology_s;
      l["net.csr_build_s"] = f.csr_s;
      l["net.routing_build_s"] = f.routing_s;
      l["net.network_build_s"] = f.network_s;
      l["net.bytes_per_node"] =
          static_cast<double>(f.topology->memory_bytes() + f.routing->memory_bytes() +
                              network.memory_bytes()) /
          static_cast<double>(kFieldNodes);
      l["net.transmissions"] = static_cast<double>(f.transmissions);
      l["net.hops_per_packet"] = static_cast<double>(f.transmissions) / originated;
      double observe_s = 0.0;
      for (const TimedObserver& shim : f.observers) observe_s += shim.seconds();
      l["adversary.observe_s"] = observe_s;
      l["adversary.score_s"] = f.score_s;
    }
    field_.reset();
  }

  std::uint64_t originated() const override { return originated_; }

 private:
  // Members are declared so that everything holding a reference is
  // destroyed before what it refers to.
  struct Field {
    std::optional<net::Topology> topology;
    std::optional<net::RoutingTable> routing;
    tempriv::sim::Simulator simulator;
    std::optional<net::Network> network;
    tempriv::crypto::PayloadCodec codec{kKey};
    std::optional<tempriv::adversary::GroundTruthRecorder> recorder;
    std::optional<tempriv::adversary::BaselineAdversary> adversary;
    std::deque<TimedObserver> observers;  // stable addresses
    std::vector<std::unique_ptr<workload::PoissonSource>> sources;
    std::uint64_t transmissions = 0;
    double topology_s = 0, csr_s = 0, routing_s = 0, network_s = 0;
    double run_s = 0, score_s = 0;
    tempriv::metrics::MseAccumulator score;
    std::string error;
  };

  Settings settings_;
  std::unique_ptr<Field> field_;
  std::optional<FieldFingerprint> first_;
  std::uint64_t originated_ = 0;
};

// ---------------------------------------------------------------------------
// ablation_shards: drop-tail and RCAD under every victim policy, bursty
// sources, run as three in-process shards and merged.

constexpr std::uint32_t kShards = 3;

// FNV-1a digests of the serial run's JSONL, stats and CSV artifacts at the
// default seed, recorded when the benchmark was written.
const std::array<std::string, 3> kAblationDigestsSeed1 = {
    "06e368f515f541b7", "7225dc6453ab545a", "b59d13cfa8d2cd7c"};

// Every point draws its own seed from the workload seed. With one seed
// shared by all points, the same burst pattern drives every point, and
// peak_rss_mb varied twice as much from seed to seed.
campaign::Sweep ablation_sweep(std::uint64_t seed, bool trace) {
  constexpr tempriv::core::VictimPolicy kPolicies[] = {
      tempriv::core::VictimPolicy::kShortestRemaining,
      tempriv::core::VictimPolicy::kLongestRemaining,
      tempriv::core::VictimPolicy::kRandom,
      tempriv::core::VictimPolicy::kOldest};
  std::vector<workload::PaperScenario> points;
  for (const double interarrival : {2.0, 6.0, 20.0}) {
    for (const std::size_t slots : {std::size_t{5}, std::size_t{20}, std::size_t{80}}) {
      workload::PaperScenario point;
      point.interarrival = interarrival;
      point.buffer_slots = slots;
      point.source = workload::SourceKind::kBursty;
      point.trace = trace;
      point.scheme = workload::Scheme::kDropTail;
      point.seed = tempriv::sim::derive_seed(seed, points.size());
      points.push_back(point);
      point.scheme = workload::Scheme::kRcad;
      for (const tempriv::core::VictimPolicy policy : kPolicies) {
        point.victim = policy;
        point.seed = tempriv::sim::derive_seed(seed, points.size());
        points.push_back(point);
      }
    }
  }
  return campaign::sweep_for_merge("grid", points);
}

class AblationShards final : public Workload {
 public:
  explicit AblationShards(Settings settings) : settings_(std::move(settings)) {}

  void prepare(Outcome& outcome, Tracer* tracer, Layers& layers) override {
    // The serial run every merge must reproduce byte for byte; under
    // tracing also the traced serial run, whose job results give the
    // per-job layer values (shards keep their JobResults to themselves).
    for (const bool traced : {false, true}) {
      if (traced && !tracer) break;
      const SweepOutput out =
          run_campaign_sweep(ablation_sweep(settings_.seed, traced), traced ? tracer : nullptr);
      check_sweep(out, outcome);
      reference_[traced] = {digest(out.jsonl), digest(out.stats), digest(out.csv)};
      originated_ = total_originated({&out});
      if (traced) {
        campaign_layers({&out}, layers);
      } else if (settings_.seed == kDefaultSeed) {
        outcome.check(reference_[false] == kAblationDigestsSeed1,
                      "serial run differs from the recorded seed-1 digests");
      }
      std::fprintf(stderr, "ablation_shards seed %llu%s: jsonl %s stats %s csv %s\n",
                   static_cast<unsigned long long>(settings_.seed),
                   traced ? " (traced)" : "", reference_[traced][0].c_str(),
                   reference_[traced][1].c_str(), reference_[traced][2].c_str());
    }
  }

  double set_up(Tracer* tracer) override {
    Span span(tracer, "campaign.expand");
    traced_ = tracer != nullptr;
    return median_rep_seconds([&] {
      sweep_ = ablation_sweep(settings_.seed, traced_);
      jobs_ = 0;
      for (std::uint32_t s = 0; s < kShards; ++s) {
        jobs_ += campaign::CampaignRunner::expand(sweep_.points, 1,
                                                  campaign::ShardSpec{s, kShards})
                     .size();
      }
    });
  }

  void run(Tracer* tracer) override {
    error_.clear();
    failed_jobs_ = 0;
    shard_bytes_ = 0;
    merge_s_ = 0.0;
    merged_.reset();
    check_ = {};
    std::vector<campaign::ShardInput> inputs;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      const campaign::ShardSpec shard{s, kShards};
      std::ostringstream jsonl_os;
      std::ostringstream stats_os;
      bool ran = false;
      try {
        {
          Span span(tracer, "campaign.run_sweep_shard");
          campaign::run_sweep_shard(
              sweep_, campaign::RunnerOptions{.threads = 1, .progress = nullptr}, 1,
              shard, jsonl_os, stats_os);
        }
        ran = true;
        const std::string jsonl = jsonl_os.str();
        const std::string stats = stats_os.str();
        shard_bytes_ += jsonl.size() + stats.size();
        merge_s_ += timed(tracer, "campaign.merge", [&] {
          const std::string label = campaign::shard_artifact_stem(sweep_.tag, shard);
          std::istringstream jsonl_is(jsonl);
          inputs.push_back(campaign::read_shard_jsonl(jsonl_is, label));
          std::istringstream stats_is(stats);
          campaign::read_shard_stats(stats_is, label, inputs.back());
        });
      } catch (const std::exception& e) {
        if (!ran) failed_jobs_ += campaign::shard_jobs_owned(sweep_.points.size(), shard);
        error_ = e.what();
      }
    }
    try {
      merge_s_ += timed(tracer, "campaign.merge", [&] {
        check_ = campaign::check_shards(inputs);
        if (check_.ok()) merged_.emplace(campaign::merge_shards(inputs));
      });
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  void finish(Outcome& outcome, Layers* layers) override {
    outcome.jobs(sweep_.points.size(), failed_jobs_, "shard threw: " + error_);
    outcome.check(jobs_ == sweep_.points.size(), "shards do not cover the sweep");
    outcome.check(check_.ok(), "check_shards: " + (check_.ok() ? std::string()
                                                               : check_.errors.front()));
    std::array<std::string, 3> merged{};
    if (merged_) {
      std::ostringstream csv;
      merged_->table.write_csv(csv);
      merged = {digest(merged_->jsonl), digest(merged_->stats_json), digest(csv.str())};
    }
    outcome.check(merged_.has_value() && merged == reference_.at(traced_),
                  "merged shards differ from the serial run" +
                      (error_.empty() ? std::string() : ": " + error_));
    if (layers) {
      (*layers)["campaign.merge_s"] = merge_s_;
      (*layers)["campaign.artifact_bytes"] = static_cast<double>(shard_bytes_);
      if (merged_) (*layers)["sim.events"] = static_cast<double>(merged_->total.sim_events);
    }
  }

  // The shards run the serial reference's jobs, checked byte for byte.
  std::uint64_t originated() const override { return originated_; }

 private:
  Settings settings_;
  campaign::Sweep sweep_;
  std::size_t jobs_ = 0;
  bool traced_ = false;
  std::map<bool, std::array<std::string, 3>> reference_;  // keyed by traced
  std::optional<campaign::MergedCampaign> merged_;
  campaign::MergeCheck check_;
  std::string error_;
  std::uint64_t failed_jobs_ = 0;
  std::size_t shard_bytes_ = 0;
  double merge_s_ = 0.0;
  std::uint64_t originated_ = 0;
};

}  // namespace

double seal_open_ns(std::uint64_t packets, Outcome& outcome) {
  if (packets == 0) return 0.0;
  const tempriv::crypto::PayloadCodec codec(kKey);
  std::uint64_t rejected = 0;
  const std::int64_t start = now_ns();
  for (std::uint64_t i = 0; i < packets; ++i) {
    const tempriv::crypto::SensorPayload payload{
        static_cast<double>(i) * 0.25, static_cast<std::uint32_t>(i),
        static_cast<double>(i)};
    const auto opened = codec.open(codec.seal(payload, static_cast<std::uint32_t>(i % 4096)));
    if (!opened || !(*opened == payload)) ++rejected;
  }
  const double ns = static_cast<double>(now_ns() - start) / static_cast<double>(packets);
  outcome.check(rejected == 0, "crypto seal/open round trip failed");
  return ns;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_campaign", "ablation_shards",
                                                 "field_1m"};
  return names;
}

std::uint64_t default_seed(const std::string& workload) {
  return workload == "paper_campaign" ? kPaperSeed : kDefaultSeed;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Settings& settings) {
  if (name == "paper_campaign") return std::make_unique<PaperCampaign>(settings);
  if (name == "field_1m") return std::make_unique<Field1m>(settings);
  if (name == "ablation_shards") return std::make_unique<AblationShards>(settings);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
