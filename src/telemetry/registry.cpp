#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/probes.h"
#include "telemetry/snapshot.h"

namespace tempriv::telemetry {

namespace {

// The span table is global (not per-thread): spans are phase-granular and
// rare, so a mutex per record costs nothing, and collection needs no
// cross-thread array walk. Compiled in both builds — an OFF build's table
// simply stays empty.
std::mutex g_span_mutex;
std::map<std::string, SpanStat>& span_table() {
  static std::map<std::string, SpanStat> table;
  return table;
}

#if defined(TEMPRIV_TELEMETRY_ENABLED)

std::mutex g_block_mutex;
// Never destroyed, like the blocks it lists: a static vector would be
// torn down at exit and leave every block unreachable to leak checkers.
std::vector<MetricBlock*>& block_list() {
  static auto* blocks = new std::vector<MetricBlock*>();
  return *blocks;
}

// Per-thread slash-joined path of the open spans ("job/simulate" while the
// simulate span is live inside a job span).
thread_local std::string t_span_path;

void record_span(const std::string& path, std::uint64_t nanos) {
  std::lock_guard<std::mutex> lock(g_span_mutex);
  SpanStat& stat = span_table()[path];
  ++stat.count;
  stat.nanos += nanos;
}

#endif  // TEMPRIV_TELEMETRY_ENABLED

}  // namespace

#if defined(TEMPRIV_TELEMETRY_ENABLED)

MetricBlock* register_thread_block() {
  // Leaked by design: a worker thread's counts must outlive the thread so
  // end-of-run collection still sees them. Bounded by thread count.
  MetricBlock* block = new MetricBlock();
  std::lock_guard<std::mutex> lock(g_block_mutex);
  block_list().push_back(block);
  return block;
}

std::uint64_t monotonic_nanos() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

PhaseSpan::PhaseSpan(const char* name) {
  prev_path_size_ = t_span_path.size();
  if (!t_span_path.empty()) t_span_path += '/';
  t_span_path += name;
  active_ = true;
  start_ns_ = monotonic_nanos();
}

void PhaseSpan::end() noexcept {
  if (!active_) return;
  active_ = false;
  const std::uint64_t elapsed = monotonic_nanos() - start_ns_;
  try {
    record_span(t_span_path, elapsed);
  } catch (...) {
    // Out-of-memory recording a measurement must not take the run down.
  }
  t_span_path.resize(prev_path_size_);
}

#endif  // TEMPRIV_TELEMETRY_ENABLED

Snapshot collect() {
  Snapshot snap;
  snap.enabled = compiled_in();
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    snap.counters[name(static_cast<Counter>(i))] = 0;
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    snap.gauges[name(static_cast<Gauge>(i))] = 0;
  }
  for (std::size_t i = 0; i < kHistCount; ++i) {
    snap.histograms[name(static_cast<Hist>(i))] = HistogramCounts{};
  }
#if defined(TEMPRIV_TELEMETRY_ENABLED)
  {
    std::lock_guard<std::mutex> lock(g_block_mutex);
    for (const MetricBlock* block : block_list()) {
      for (std::size_t i = 0; i < kCounterCount; ++i) {
        snap.counters[name(static_cast<Counter>(i))] += block->counters[i];
      }
      for (std::size_t i = 0; i < kGaugeCount; ++i) {
        std::uint64_t& gauge = snap.gauges[name(static_cast<Gauge>(i))];
        if (block->gauges[i] > gauge) gauge = block->gauges[i];
      }
      for (std::size_t i = 0; i < kHistCount; ++i) {
        HistogramCounts& hist = snap.histograms[name(static_cast<Hist>(i))];
        for (std::size_t b = 0; b < kHistBuckets; ++b) {
          hist.buckets[b] += block->hists[i][b];
        }
      }
    }
  }
#endif
  {
    std::lock_guard<std::mutex> lock(g_span_mutex);
    snap.spans = span_table();
  }
  return snap;
}

void reset() {
#if defined(TEMPRIV_TELEMETRY_ENABLED)
  {
    std::lock_guard<std::mutex> lock(g_block_mutex);
    for (MetricBlock* block : block_list()) *block = MetricBlock{};
  }
#endif
  std::lock_guard<std::mutex> lock(g_span_mutex);
  span_table().clear();
}

}  // namespace tempriv::telemetry
