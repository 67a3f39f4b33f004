#include "campaign/progress.h"

#include <iomanip>
#include <ostream>

namespace tempriv::campaign {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

ProgressReporter::ProgressReporter(std::ostream& os, std::size_t total_jobs,
                                   std::chrono::milliseconds min_interval)
    : os_(os),
      total_(total_jobs),
      min_interval_(min_interval),
      start_(std::chrono::steady_clock::now()),
      last_print_(start_ - min_interval) {}

void ProgressReporter::job_done(std::uint64_t sim_events) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++done_;
  events_ += sim_events;
  const auto now = std::chrono::steady_clock::now();
  if (done_ == total_ || now - last_print_ >= min_interval_) {
    last_print_ = now;
    print_line(false);
  }
}

void ProgressReporter::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  print_line(true);
}

void ProgressReporter::print_line(bool final_line) {
  const double elapsed = seconds_since(start_);
  const double rate =
      elapsed > 0.0 ? static_cast<double>(events_) / elapsed : 0.0;
  os_ << "[campaign] " << done_ << "/" << total_ << " jobs";
  os_ << std::fixed << std::setprecision(1);
  if (rate > 0.0) os_ << "  " << rate / 1e6 << "M events/s";
  if (final_line) {
    os_ << "  done in " << elapsed << "s\n";
  } else if (done_ > 0 && done_ < total_) {
    const double eta =
        elapsed / static_cast<double>(done_) * static_cast<double>(total_ - done_);
    os_ << "  ETA " << eta << "s\n";
  } else {
    os_ << "\n";
  }
  os_.unsetf(std::ios::floatfield);
}

}  // namespace tempriv::campaign
