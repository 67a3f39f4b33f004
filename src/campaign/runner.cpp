#include "campaign/runner.h"

#include <chrono>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "campaign/thread_pool.h"
#include "sim/seed.h"

namespace tempriv::campaign {

namespace {

/// Releases completed jobs to the sinks strictly in submission order:
/// workers deposit results (keyed by their dense position in the submitted
/// job list — not the global job index, which is stride-N in a shard run)
/// as they finish; whenever the contiguous prefix grows, the depositing
/// worker drains it. Bounded buffering (only out-of-order stragglers are
/// held) and no dedicated merger thread.
class InOrderMerger {
 public:
  InOrderMerger(std::vector<JobResult>& out, const std::vector<ResultSink*>& sinks)
      : out_(out), sinks_(sinks) {}

  void deposit(std::size_t order, JobResult result) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.emplace(order, std::move(result));
    for (auto next = pending_.find(next_order_); next != pending_.end();
         next = pending_.find(next_order_)) {
      for (ResultSink* sink : sinks_) sink->consume(next->second);
      out_.push_back(std::move(next->second));
      pending_.erase(next);
      ++next_order_;
    }
  }

 private:
  std::vector<JobResult>& out_;
  const std::vector<ResultSink*>& sinks_;
  std::mutex mutex_;
  std::map<std::size_t, JobResult> pending_;
  std::size_t next_order_ = 0;
};

}  // namespace

std::vector<JobSpec> CampaignRunner::expand(
    const std::vector<workload::PaperScenario>& points,
    std::uint32_t replications) {
  if (replications == 0) {
    throw std::invalid_argument("CampaignRunner::expand: replications == 0");
  }
  std::vector<JobSpec> jobs;
  jobs.reserve(points.size() * replications);
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::uint32_t r = 0; r < replications; ++r) {
      JobSpec spec;
      spec.index = jobs.size();
      spec.point = p;
      spec.replication = r;
      spec.scenario = points[p];
      if (r > 0) spec.scenario.seed = sim::derive_seed(points[p].seed, r);
      jobs.push_back(std::move(spec));
    }
  }
  return jobs;
}

std::vector<JobSpec> CampaignRunner::expand(
    const std::vector<workload::PaperScenario>& points,
    std::uint32_t replications, const ShardSpec& shard) {
  std::vector<JobSpec> all = expand(points, replications);
  if (shard.is_all()) return all;
  std::vector<JobSpec> owned;
  owned.reserve(shard_jobs_owned(all.size(), shard));
  for (JobSpec& spec : all) {
    if (shard.owns(spec.index)) owned.push_back(std::move(spec));
  }
  return owned;
}

std::vector<JobResult> CampaignRunner::run(
    const std::vector<JobSpec>& jobs, const std::vector<ResultSink*>& sinks) {
  std::vector<JobResult> results;
  results.reserve(jobs.size());
  InOrderMerger merger(results, sinks);
  ProgressReporter* progress = options_.progress;

  std::vector<std::future<void>> futures;
  futures.reserve(jobs.size());
  {
    ThreadPool pool(options_.threads);
    for (std::size_t order = 0; order < jobs.size(); ++order) {
      const JobSpec& spec = jobs[order];
      futures.push_back(pool.submit([&merger, &spec, order, progress] {
        const auto start = std::chrono::steady_clock::now();
        JobResult job;
        job.spec = spec;
        job.result = workload::run_paper_scenario(spec.scenario);
        job.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (progress) progress->job_done(job.result.events_executed);
        merger.deposit(order, std::move(job));
      }));
    }
    // Collect completions before the pool goes out of scope; a job that
    // threw (and therefore never deposited) surfaces here. Rethrow the
    // lowest-indexed failure so diagnostics are deterministic too.
    std::exception_ptr first_error;
    for (std::future<void>& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  for (ResultSink* sink : sinks) sink->close();
  return results;
}

std::vector<workload::ScenarioResult> point_results(
    const std::vector<JobResult>& jobs) {
  std::vector<workload::ScenarioResult> out;
  for (const JobResult& job : jobs) {
    if (job.spec.replication == 0) {
      if (job.spec.point != out.size()) {
        throw std::logic_error("point_results: jobs not in index order");
      }
      out.push_back(job.result);
    }
  }
  return out;
}

}  // namespace tempriv::campaign
