#pragma once

// The benchmark's three workloads. Each one builds its inputs from the seed
// alone, runs single-threaded (one campaign worker), checks its outputs, and
// times each layer from outside by wrapping calls into the layers' public
// functions. Why each workload exists, and which end-to-end metric each
// layer metric should move on it, is written down in README.md.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// The paper's Fig. 1 campaigns run at this seed by default; their tables
/// are checked byte for byte against tests/golden/ at it.
inline constexpr std::uint64_t kPaperSeed = 0x7e3970c1;
/// Default seed of the field_1m and ablation_shards workloads.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Per-layer values of one traced iteration, keyed by metric name.
using Layers = std::map<std::string, double>;

/// Operations attempted and failed over a run. A job that throws and an
/// output check that fails each count as one failure.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages

  void check(bool ok, const std::string& what);
  void jobs(std::uint64_t attempted_jobs, std::uint64_t failed_jobs,
            const std::string& what);
};

struct Settings {
  std::uint64_t seed = 0;
  std::string golden_dir;  ///< tests/golden of the source tree
};

/// One workload. perfbench_driver calls prepare() once, then per iteration
/// set_up() (timed as setup_s), run() (timed as wall_s / cpu_s) and
/// finish() (untimed: output checks, per-layer values, tear-down). A null
/// tracer means an untraced iteration; per-layer values are filled only on
/// traced iterations.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed: reference runs the output checks compare against.
  virtual void prepare(Outcome& outcome, Tracer* tracer, Layers& layers) = 0;
  /// Builds the iteration's inputs; returns set-up seconds.
  virtual double set_up(Tracer* tracer) = 0;
  virtual void run(Tracer* tracer) = 0;
  virtual void finish(Outcome& outcome, Layers* layers) = 0;
  /// Packets originated by the last iteration (the crypto layer's count).
  virtual std::uint64_t originated() const = 0;
};

/// Nanoseconds per PayloadCodec::seal plus open, over `packets` payloads
/// (a workload's originated count); a failed round trip is a failure.
double seal_open_ns(std::uint64_t packets, Outcome& outcome);

const std::vector<std::string>& workload_names();
std::uint64_t default_seed(const std::string& workload);
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Settings& settings);

}  // namespace perfbench
