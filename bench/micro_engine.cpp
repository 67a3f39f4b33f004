// Engine microbenchmarks (google-benchmark): the discrete-event kernel,
// the deterministic RNG, RCAD buffer operations, and a full paper-scenario
// run. These bound how large a network the simulator can handle.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

// Global allocation counter: the steady-state benchmarks report allocs/op so
// the zero-allocation contract shows up in the benchmark report, not just
// in the unit test that asserts it.
//
// GCC flags malloc-backed replacement allocators as mismatched new/delete
// pairs; the pairing is correct here since every path goes through these.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace tempriv;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  sim::RandomStream rng(1);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < batch; ++i) {
      queue.schedule(rng.uniform(0.0, 1000.0), [] {});
    }
    while (queue.pop()) {
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(100000);

void BM_EventQueueSteadyState(benchmark::State& state) {
  // Warm, pre-reserved queue: the per-event cost with the pool and heap at
  // capacity, plus the allocations-per-event counter (contract: 0.0).
  sim::RandomStream rng(4);
  sim::EventQueue queue;
  queue.reserve(1024);
  for (int i = 0; i < 1024; ++i) queue.schedule(rng.uniform(0.0, 1000.0), [] {});
  for (int i = 0; i < 512; ++i) queue.pop();
  const std::int64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    queue.schedule(queue.next_time() + rng.uniform(0.0, 10.0), [] {});
    auto event = queue.pop();
    benchmark::DoNotOptimize(event);
  }
  const std::int64_t allocs = g_allocs.load(std::memory_order_relaxed) -
                              allocs_before;
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState);

void BM_RngExponential(benchmark::State& state) {
  sim::RandomStream rng(3);
  double sink = 0.0;
  for (auto _ : state) {
    sink += rng.exponential_mean(30.0);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponential);

void BM_SimulatorEventChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t remaining = 100000;
    std::function<void()> chain = [&] {
      if (--remaining > 0) sim.schedule_after(1.0, chain);
    };
    sim.schedule_after(1.0, chain);
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SimulatorEventChain);

void BM_PaperScenarioRcad(benchmark::State& state) {
  for (auto _ : state) {
    workload::PaperScenario scenario;
    scenario.scheme = workload::Scheme::kRcad;
    scenario.interarrival = 2.0;
    scenario.packets_per_source = 200;
    const auto result = run_paper_scenario(scenario);
    benchmark::DoNotOptimize(result.delivered);
  }
}
BENCHMARK(BM_PaperScenarioRcad)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
