// Byte-level determinism gate for the paper figures and ablations: every
// named sweep, run in-process on the campaign engine at the default seed,
// must render a CSV byte-identical to the golden file committed in
// tests/golden/. Any change to event ordering, RNG draw order, or victim
// selection trips this immediately.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/sweeps.h"
#include "campaign/sweep_names.h"

#ifndef TEMPRIV_GOLDEN_DIR
#error "TEMPRIV_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace tempriv::campaign {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    ADD_FAILURE() << "cannot open golden file " << path;
    return {};
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  return contents.str();
}

class GoldenDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenDeterminism, SweepCsvMatchesGoldenBytes) {
  const Sweep sweep = make_named_sweep(GetParam());
  const std::string golden =
      read_file(std::string(TEMPRIV_GOLDEN_DIR) + "/" + sweep.tag + ".csv");
  ASSERT_FALSE(golden.empty());
  // Two workers: the merge valve guarantees thread-count independence, so
  // this also cross-checks parallel == serial while checking the bytes.
  const SweepRun run =
      run_sweep(sweep, RunnerOptions{.threads = 2, .progress = nullptr});
  std::ostringstream rendered;
  run.table.write_csv(rendered);
  EXPECT_EQ(rendered.str(), golden)
      << "sweep '" << sweep.name << "' diverged from tests/golden/"
      << sweep.tag << ".csv";
}

INSTANTIATE_TEST_SUITE_P(NamedSweeps, GoldenDeterminism,
                         ::testing::ValuesIn(all_named_sweeps()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace tempriv::campaign
