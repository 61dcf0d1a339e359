// P7 — eventcount synchronization [Reed and Kanodia, 1977], the substrate
// that lets a low-level discoverer of an event signal upward without knowing
// the identity of the waiting processes.  Host-time microbenchmarks of the
// primitive operations, plus waiter-count scaling for Advance.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"
#include "src/sync/eventcount.h"

namespace mks {
namespace {

void BM_Advance_NoWaiters(benchmark::State& state) {
  Metrics metrics;
  EventcountTable table(&metrics);
  const EventcountId ec = table.Create();
  std::vector<EcWaiter> woken;
  for (auto _ : state) {
    table.Advance(ec, &woken);
    benchmark::DoNotOptimize(woken.data());
  }
}
BENCHMARK(BM_Advance_NoWaiters);

void BM_Read(benchmark::State& state) {
  Metrics metrics;
  EventcountTable table(&metrics);
  const EventcountId ec = table.Create();
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Read(ec));
  }
}
BENCHMARK(BM_Read);

void BM_AwaitSatisfied(benchmark::State& state) {
  Metrics metrics;
  EventcountTable table(&metrics);
  const EventcountId ec = table.Create();
  std::vector<EcWaiter> woken;
  table.Advance(ec, &woken);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.AwaitOrEnqueue(ec, 1, EcWaiter::Vp(VpId(0))));
  }
}
BENCHMARK(BM_AwaitSatisfied);

// Advance with N waiters, all satisfied at once (the broadcast the
// page-arrival protocol relies on).
void BM_AdvanceBroadcast(benchmark::State& state) {
  Metrics metrics;
  EventcountTable table(&metrics);
  const EventcountId ec = table.Create();
  const int waiters = static_cast<int>(state.range(0));
  std::vector<EcWaiter> woken;
  uint64_t target = 1;
  for (auto _ : state) {
    state.PauseTiming();
    for (int w = 0; w < waiters; ++w) {
      table.AwaitOrEnqueue(ec, target, EcWaiter::Vp(VpId(static_cast<uint16_t>(w))));
    }
    state.ResumeTiming();
    table.Advance(ec, &woken);
    benchmark::DoNotOptimize(woken.data());
    ++target;
  }
  state.counters["waiters"] = waiters;
}
BENCHMARK(BM_AdvanceBroadcast)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_SequencerTicket(benchmark::State& state) {
  Sequencer seq;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq.Ticket());
  }
}
BENCHMARK(BM_SequencerTicket);

// These primitives never touch the simulated clock (they are the host-level
// substrate), so the JSON line reports host nanoseconds per operation from a
// single fixed-count run.
template <typename Fn>
double HostNsPerOp(int iters, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    fn();
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() / iters;
}

}  // namespace
}  // namespace mks

int main(int argc, char** argv) {
  using namespace mks;
  std::printf(
      "P7 -- eventcounts and sequencers: the discoverer of an event needs no\n"
      "knowledge of the waiting processes' identities; advance is O(waiters)\n"
      "only when waiters exist.\n\n");
  {
    constexpr int kIters = 100000;
    Metrics metrics;
    EventcountTable table(&metrics);
    const EventcountId ec = table.Create();
    std::vector<EcWaiter> woken;
    const double advance_ns = HostNsPerOp(kIters, [&] { table.Advance(ec, &woken); });
    const double read_ns = HostNsPerOp(kIters, [&] { (void)table.Read(ec); });
    uint64_t target = table.Read(ec) + 1;
    const double broadcast16_ns = HostNsPerOp(2000, [&] {
      for (int w = 0; w < 16; ++w) {
        table.AwaitOrEnqueue(ec, target, EcWaiter::Vp(VpId(static_cast<uint16_t>(w))));
      }
      table.Advance(ec, &woken);
      ++target;
    });
    Sequencer seq;
    const double ticket_ns = HostNsPerOp(kIters, [&] { (void)seq.Ticket(); });
    EmitJson(JsonLine("eventcounts")
                 .Field("advance_no_waiters_ns", advance_ns)
                 .Field("read_ns", read_ns)
                 .Field("broadcast_16_waiters_ns", broadcast16_ns)
                 .Field("sequencer_ticket_ns", ticket_ns));
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
