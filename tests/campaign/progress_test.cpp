#include "campaign/progress.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>

namespace tempriv::campaign {
namespace {

using std::chrono::milliseconds;

// Pass sim_events = 0 so the events/s clause stays away (rate 0 is not
// printed) and line shapes are deterministic.

TEST(ProgressReporterTest, PrintsCountAndEta) {
  std::ostringstream os;
  ProgressReporter progress(os, 3, milliseconds(0));
  progress.job_done(0);
  const std::string line = os.str();
  EXPECT_EQ(line.rfind("[campaign] 1/3 jobs", 0), 0u) << line;
  EXPECT_NE(line.find("ETA "), std::string::npos) << line;
  EXPECT_EQ(line.back(), '\n') << line;
}

TEST(ProgressReporterTest, FinalJobOmitsEta) {
  std::ostringstream os;
  ProgressReporter progress(os, 1, milliseconds(0));
  progress.job_done(0);
  const std::string line = os.str();
  EXPECT_EQ(line.rfind("[campaign] 1/1 jobs", 0), 0u) << line;
  EXPECT_EQ(line.find("ETA"), std::string::npos) << line;
}

TEST(ProgressReporterTest, ThrottleSuppressesMidRunLines) {
  std::ostringstream os;
  // The first job always prints (the throttle window starts expired); a
  // huge min_interval then suppresses later mid-run jobs.
  ProgressReporter progress(os, 3, milliseconds(1000000));
  progress.job_done(0);
  const std::string first = os.str();
  EXPECT_EQ(first.rfind("[campaign] 1/3 jobs", 0), 0u) << first;
  progress.job_done(0);
  EXPECT_EQ(os.str(), first);  // throttled: nothing new
}

TEST(ProgressReporterTest, FinishPrintsClosingSummary) {
  std::ostringstream os;
  ProgressReporter progress(os, 2, milliseconds(0));
  progress.job_done(0);
  os.str("");
  progress.finish();
  const std::string line = os.str();
  EXPECT_EQ(line.rfind("[campaign] 1/2 jobs", 0), 0u) << line;
  EXPECT_NE(line.find("done in "), std::string::npos) << line;
  EXPECT_EQ(line.find("ETA"), std::string::npos) << line;
}

TEST(ProgressReporterTest, RateClauseAppearsWithEvents) {
  std::ostringstream os;
  ProgressReporter progress(os, 2, milliseconds(0));
  progress.job_done(1000000);
  EXPECT_NE(os.str().find("M events/s"), std::string::npos) << os.str();
}

TEST(ProgressReporterTest, CountsDoneJobs) {
  std::ostringstream os;
  ProgressReporter progress(os, 5, milliseconds(1000000));
  progress.job_done(10);
  progress.job_done(20);  // throttled: prints nothing
  progress.finish();
  EXPECT_NE(os.str().find("[campaign] 2/5 jobs"), std::string::npos) << os.str();
}

}  // namespace
}  // namespace tempriv::campaign
