#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>

namespace tempriv::campaign {

/// Thread-safe campaign progress meter: prints "jobs done/total, simulated
/// events/sec, ETA" lines to a stream (stderr in the CLI). Reporting is
/// rate-limited. Workers call job_done() concurrently, outside any lock.
/// Progress is measurement-only — it never touches result data, so it has
/// no effect on determinism.
class ProgressReporter {
 public:
  /// `min_interval` throttles output; the final job always reports.
  explicit ProgressReporter(
      std::ostream& os, std::size_t total_jobs,
      std::chrono::milliseconds min_interval = std::chrono::milliseconds(250));

  /// Records one finished job that executed `sim_events` simulator events.
  void job_done(std::uint64_t sim_events);

  /// Prints the closing summary line (total wall time, events/sec).
  void finish();

 private:
  void print_line(bool final_line);

  std::ostream& os_;
  const std::size_t total_;
  const std::chrono::milliseconds min_interval_;
  const std::chrono::steady_clock::time_point start_;
  std::mutex mutex_;
  std::size_t done_ = 0;
  std::uint64_t events_ = 0;
  std::chrono::steady_clock::time_point last_print_;
};

}  // namespace tempriv::campaign
