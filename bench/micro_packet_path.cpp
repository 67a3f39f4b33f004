// Packet-path microbenchmarks (google-benchmark): the seal -> store-and-
// forward -> open journey that every simulated packet takes (paper §2, §5.2).
// These bound the per-packet cost of the simulator independently of the
// delaying machinery that PR 2 and PR 3 already optimized.
//
// The forwarding benchmarks report allocs/op so the zero-allocation contract
// of the packet path shows up in BENCH_network.json, not just in the unit
// test that asserts it.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "core/discipline_spec.h"
#include "crypto/ctr.h"
#include "crypto/payload.h"
#include "net/network.h"
#include "net/topology.h"
#include "net/tracer.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

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

const crypto::Speck64_128::Key kKey{0x00, 0x11, 0x22, 0x33, 0x44, 0x55,
                                    0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb,
                                    0xcc, 0xdd, 0xee, 0xff};

/// Sink observer that only counts, so delivery costs nothing measurable.
struct CountingSink final : net::SinkObserver {
  std::uint64_t count = 0;
  void on_delivery(const net::Packet&, sim::Time) override { ++count; }
};

void BM_SealOnly(benchmark::State& state) {
  const crypto::PayloadCodec codec(kKey);
  crypto::SensorPayload payload{20.5, 0, 123.0};
  for (auto _ : state) {
    payload.app_seq++;
    crypto::SealedPayload sealed = codec.seal(payload, 7);
    benchmark::DoNotOptimize(sealed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SealOnly);

void BM_SealOpenRoundTrip(benchmark::State& state) {
  const crypto::PayloadCodec codec(kKey);
  crypto::SensorPayload payload{20.5, 0, 123.0};
  const std::int64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    payload.app_seq++;
    const crypto::SealedPayload sealed = codec.seal(payload, 7);
    auto opened = codec.open(sealed);
    benchmark::DoNotOptimize(opened);
  }
  const std::int64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SealOpenRoundTrip);

/// Steady-state per-hop forwarding cost on a warm network: one packet at a
/// time down a 16-hop line with immediate forwarding (no privacy delays), so
/// the only work measured is originate -> 16 x (transmit + arrive) -> sink.
void BM_ForwardPerHop(benchmark::State& state) {
  constexpr std::size_t kHops = 16;
  sim::Simulator sim;
  net::Network network(sim, net::Topology::line(kHops + 1),
                       core::DisciplineSpec::immediate(),
                       {.hop_tx_delay = 1.0}, sim::RandomStream(1));
  CountingSink sink;
  network.add_sink_observer(&sink);
  const crypto::PayloadCodec codec(kKey);
  std::uint32_t seq = 0;
  // Warm-up: let every pool/queue slot the journey touches exist.
  network.originate(0, codec.seal({20.5, seq++, 0.0}, 0));
  sim.run();
  const std::int64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    network.originate(0, codec.seal({20.5, seq++, sim.now()}, 0));
    sim.run();
  }
  const std::int64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kHops));
  benchmark::DoNotOptimize(sink.count);
}
BENCHMARK(BM_ForwardPerHop);

/// A pipelined journey: `range(0)` packets in flight at once down a 16-hop
/// line, with (arg 1) and without (arg 0) a PacketTracer recording every
/// transmission. The tracer accumulates per-hop state, so the whole world is
/// rebuilt per iteration and the construction cost is amortized over
/// packets x hops items.
void BM_ForwardJourney(benchmark::State& state) {
  constexpr std::size_t kHops = 16;
  const std::size_t packets = static_cast<std::size_t>(state.range(0));
  const bool traced = state.range(1) != 0;
  const crypto::PayloadCodec codec(kKey);
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network network(sim, net::Topology::line(kHops + 1),
                         core::DisciplineSpec::immediate(),
                         {.hop_tx_delay = 1.0}, sim::RandomStream(1));
    CountingSink sink;
    network.add_sink_observer(&sink);
    std::optional<net::PacketTracer> tracer;
    if (traced) tracer.emplace(network);
    for (std::uint32_t seq = 0; seq < packets; ++seq) {
      // Staggered starts keep several packets in flight per link step.
      sim.schedule_at(0.25 * seq, [&network, &codec, seq] {
        network.originate(0, codec.seal({20.5, seq, 0.25 * seq}, 0));
      });
    }
    sim.run();
    benchmark::DoNotOptimize(sink.count);
    if (traced) benchmark::DoNotOptimize(tracer->transmissions());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packets * kHops));
}
BENCHMARK(BM_ForwardJourney)
    ->ArgNames({"packets", "traced"})
    ->Args({256, 0})
    ->Args({256, 1});

/// End-to-end anchor inside the micro suite: one RCAD paper-scenario point
/// (the fig2a inner loop) at a reduced packet count. The campaign-level
/// trajectory in scripts/bench_network.sh times the full sweeps.
void BM_ScenarioRcadPoint(benchmark::State& state) {
  for (auto _ : state) {
    workload::PaperScenario scenario;
    scenario.scheme = workload::Scheme::kRcad;
    scenario.interarrival = 2.0;
    scenario.packets_per_source = 250;
    const auto result = run_paper_scenario(scenario);
    benchmark::DoNotOptimize(result.delivered);
  }
}
BENCHMARK(BM_ScenarioRcadPoint)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Surfaced in the report's context block so BENCH_network.json records
  // which vector ISA produced the numbers.
  benchmark::AddCustomContext("tempriv_simd_isa",
                              tempriv::crypto::keystream_isa());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
